package reclog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func entry(i int) Entry {
	return Entry{Unit: i, Records: []Record{{Key: fmt.Sprintf("k%d", i), Val: json.RawMessage(fmt.Sprintf(`{"misses":%d}`, i))}}}
}

// writeLog appends n entries to a new log at path and returns the bytes
// each append wrote.
func writeLog(t *testing.T, path string, plan uint64, n int) []int {
	t.Helper()
	w, err := Open(path, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for i := 0; i < n; i++ {
		k, err := w.Append(entry(i))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, k)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sizes
}

// TestHeaderNamesBuildAndPlan: the header records the running build and
// the writer's plan, and the appends account for every byte of the file.
func TestHeaderNamesBuildAndPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	sizes := writeLog(t, path, 0xfeed, 3)
	l, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	self, err := Self()
	if err != nil {
		t.Fatal(err)
	}
	if l.Build != self || l.Plan != 0xfeed || l.Torn || len(l.Entries) != 3 {
		t.Fatalf("read build %s plan %x torn %v, %d entries", l.Build, l.Plan, l.Torn, len(l.Entries))
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sizes[0] + sizes[1] + sizes[2]; int64(sum) != info.Size() || l.End != info.Size() {
		t.Fatalf("appends wrote %d bytes, End %d, file %d", sum, l.End, info.Size())
	}
}

// TestForeignBuildRefused: a log whose header names another build is an
// error that names both builds.
func TestForeignBuildRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	writeLog(t, path, 1, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var foreign Build
	copy(foreign[:], data[len(magic):])
	self, err := Self()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Read(path)
	if err == nil || !strings.Contains(err.Error(), foreign.String()) || !strings.Contains(err.Error(), self.String()) {
		t.Fatalf("foreign-build log read gave %v, want a refusal naming %s and %s", err, foreign, self)
	}
}

// TestEmptyFileIsEmptyLog: a log created but never appended to has no
// header yet and reads as empty.
func TestEmptyFileIsEmptyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	w, err := Open(path, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(path)
	if err != nil || l.End != 0 || len(l.Entries) != 0 || l.Torn {
		t.Fatalf("empty log read %+v, %v", l, err)
	}
}

// TestReopenCutsTornTail: reopening a torn log at its intact End cuts
// the torn bytes, so the next record follows the prefix instead of
// being stranded behind garbage.
func TestReopenCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	sizes := writeLog(t, path, 3, 3)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-int64(sizes[2])/2); err != nil {
		t.Fatal(err)
	}
	l, err := Read(path)
	if err != nil || !l.Torn || len(l.Entries) != 2 {
		t.Fatalf("torn read: %d entries, torn %v, %v", len(l.Entries), l.Torn, err)
	}
	w, err := Open(path, 3, l.End)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(entry(7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Read(path)
	if err != nil || l.Torn || len(l.Entries) != 3 || l.Entries[2].Unit != 7 || l.Plan != 3 {
		t.Fatalf("after reopen: %+v, %v", l, err)
	}
}
