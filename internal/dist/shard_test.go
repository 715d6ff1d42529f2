package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bcache/internal/reclog"
)

// shardHeaderLen is a shard's header size: magic, build identity, plan.
const shardHeaderLen = 8 + 32 + 8

// writeTestShard writes a shard the way a worker does: one entry per
// executed unit, appended to a record log stamped with the plan.
func writeTestShard(t testing.TB, dir string, fp uint64, n int) (string, []reclog.Entry) {
	t.Helper()
	path := filepath.Join(dir, "shard-000-000.bin")
	w, err := reclog.Open(path, fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []reclog.Entry
	for i := 0; i < n; i++ {
		e := reclog.Entry{Unit: i, Records: []Record{
			{Key: fmt.Sprintf("unit-%d", i), Val: json.RawMessage(fmt.Sprintf(`{"misses":%d}`, 100+i))},
		}}
		if _, err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, want
}

func TestShardRoundTrip(t *testing.T) {
	const fp = 0xfeedface
	path, want := writeTestShard(t, t.TempDir(), fp, 5)
	l, err := readShard(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	got := l.Entries
	if len(got) != len(want) || l.Torn {
		t.Fatalf("read %d payloads (torn %v), want %d", len(got), l.Torn, len(want))
	}
	for i := range want {
		if got[i].Unit != want[i].Unit || len(got[i].Records) != 1 ||
			got[i].Records[0].Key != want[i].Records[0].Key ||
			string(got[i].Records[0].Val) != string(want[i].Records[0].Val) {
			t.Fatalf("payload %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestShardWrongFingerprintRejected(t *testing.T) {
	path, _ := writeTestShard(t, t.TempDir(), 1, 2)
	if _, err := readShard(path, 2); err == nil || !strings.Contains(err.Error(), "plan") {
		t.Fatalf("foreign-plan shard read gave %v, want a plan error", err)
	}
}

// TestShardForeignBuildRejected: a shard written by another build is
// never merged, and the refusal names both builds.
func TestShardForeignBuildRejected(t *testing.T) {
	path, _ := writeTestShard(t, t.TempDir(), 4, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	self, err := reclog.Self()
	if err != nil {
		t.Fatal(err)
	}
	foreign := self
	foreign[0] ^= 0x01
	if _, err := readShard(path, 4); err == nil ||
		!strings.Contains(err.Error(), self.String()) || !strings.Contains(err.Error(), foreign.String()) {
		t.Fatalf("foreign-build shard read gave %v, want a refusal naming both builds", err)
	}
}

func TestShardNotAShard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bogus.bin")
	if err := os.WriteFile(path, []byte("definitely not a shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readShard(path, 0); err == nil {
		t.Fatal("bogus file read without error")
	}
}

// TestShardTruncationSweep cuts the file at every byte: the reader must
// return exactly the records whose bytes fully survive, flagging the
// torn tail, and never error hard on a valid header.
func TestShardTruncationSweep(t *testing.T) {
	const fp = 77
	path, want := writeTestShard(t, t.TempDir(), fp, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	prev := -1
	for cut := shardHeaderLen; cut <= len(data); cut++ {
		p := filepath.Join(dir, "cut.bin")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := readShard(p, fp)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// A cut at an exact record boundary is indistinguishable from a
		// shorter log and reads clean; anywhere else the tail is torn.
		if l.Torn != (l.End != int64(cut)) {
			t.Fatalf("cut %d: torn %v with End %d", cut, l.Torn, l.End)
		}
		got := l.Entries
		if len(got) < prev {
			t.Fatalf("cut %d: record count went backwards (%d after %d)", cut, len(got), prev)
		}
		prev = len(got)
		for i, pl := range got {
			if pl.Unit != want[i].Unit {
				t.Fatalf("cut %d: payload %d unit = %d, want %d", cut, i, pl.Unit, want[i].Unit)
			}
		}
	}
	if prev != len(want) {
		t.Fatalf("full read kept %d records, want %d", prev, len(want))
	}
}

// TestShardBitFlipDropsTail: corruption inside record k keeps records
// 0..k-1 and reports the tail torn — checksums, not luck.
func TestShardBitFlipDropsTail(t *testing.T) {
	const fp = 9
	path, _ := writeTestShard(t, t.TempDir(), fp, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for flip := shardHeaderLen; flip < len(data); flip += 3 {
		mut := append([]byte(nil), data...)
		mut[flip] ^= 0x20
		p := filepath.Join(dir, "flip.bin")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := readShard(p, fp)
		if err != nil {
			t.Fatalf("flip %d: hard error %v", flip, err)
		}
		if len(l.Entries) >= 4 || !l.Torn {
			t.Fatalf("flip %d: kept %d records, torn %v", flip, len(l.Entries), l.Torn)
		}
	}
}

// FuzzReadShard: arbitrary bytes after a valid header must never panic
// or allocate absurdly; any parsed prefix is bounded by the input size.
func FuzzReadShard(f *testing.F) {
	dir, err := os.MkdirTemp("", "shardfuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	const fp = 5
	path, _ := writeTestShard(f, dir, fp, 3)
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(append(append([]byte(nil), seed[:shardHeaderLen]...), 0xff, 0xff, 0xff, 0xff))
	// One file per fuzzing process: its inputs run one at a time.
	p := filepath.Join(dir, "fz.bin")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := readShard(p, fp)
		if err != nil {
			return
		}
		// Every record takes 12 bytes of framing and some payload.
		if l.End > int64(len(data)) || len(l.Entries) > len(data)/12 {
			t.Fatalf("parsed %d records (End %d) from %d bytes", len(l.Entries), l.End, len(data))
		}
	})
}
