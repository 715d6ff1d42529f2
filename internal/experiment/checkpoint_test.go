package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bcache/internal/energy"
	"bcache/internal/workload"
)

func TestCheckpointSaveLoadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.log")
	cp := NewCheckpoint(path)
	cp.Record("k1", rawJSON(UnitResult{Misses: 1, Accesses: 2, PDHit: 3, PDMiss: 4}))
	cp.Record("k2", rawJSON(UnitResult{Misses: 5, Accesses: 6}))
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d units, want 2", got.Len())
	}
	u, ok := got.Lookup("k1")
	if !ok || string(u) != string(rawJSON(UnitResult{Misses: 1, Accesses: 2, PDHit: 3, PDMiss: 4})) {
		t.Errorf("k1 roundtrip: got %+v ok=%v", u, ok)
	}
}

func TestCheckpointMissingFileIsEmpty(t *testing.T) {
	cp, err := LoadCheckpoint(filepath.Join(t.TempDir(), "never-written.log"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 0 {
		t.Errorf("missing file loaded %d units", cp.Len())
	}
}

// TestCheckpointSchemaMismatchRejected: a file that is not a record log
// — the JSON checkpoint of earlier builds, say — is refused, not read
// as empty.
func TestCheckpointSchemaMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := os.WriteFile(path, []byte(`{"schemaVersion":1,"units":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("JSON checkpoint accepted")
	}
}

// TestCheckpointAutosave: every new result is on disk when Record
// returns, with no save step; recording a key's same bytes again
// appends nothing, and a key recorded with new bytes reloads as the
// last one.
func TestCheckpointAutosave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.log")
	cp := NewCheckpoint(path)
	defer cp.Close()
	size := func() int64 {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("record not on disk: %v", err)
		}
		return info.Size()
	}
	cp.Record("a", rawJSON(UnitResult{Accesses: 1}))
	one := size()
	cp.Record("a", rawJSON(UnitResult{Accesses: 1}))
	if size() != one {
		t.Fatal("re-recording the same bytes appended")
	}
	cp.Record("b", rawJSON(UnitResult{Accesses: 2}))
	cp.Record("a", rawJSON(UnitResult{Accesses: 3}))
	if size() <= one {
		t.Fatal("new records did not append")
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := got.Lookup("a"); got.Len() != 2 || string(a) != string(rawJSON(UnitResult{Accesses: 3})) {
		t.Fatalf("reloaded %d units, a = %s; want 2 units, the last a", got.Len(), a)
	}
}

func TestCheckpointNilSafe(t *testing.T) {
	var cp *Checkpoint
	cp.Record("k", rawJSON(UnitResult{}))
	cp.SetAfterRecord(nil)
	if _, ok := cp.Lookup("k"); ok {
		t.Error("nil checkpoint returned a unit")
	}
	if cp.Len() != 0 {
		t.Error("nil checkpoint non-empty")
	}
	if err := cp.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// resumeFixture is the small miss-rate run the resume test interrupts:
// 2 profiles × 3 configs (baseline + 2) × 1 seed = 6 work units.
func resumeFixture(t *testing.T) (Opts, []*workload.Profile, []Spec) {
	t.Helper()
	opts := tinyOpts()
	opts.Workers = 1 // deterministic interruption point
	var profiles []*workload.Profile
	for _, name := range []string{"equake", "gcc"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	specs := []Spec{setAssocSpec(2, energy.Way2), bcacheSpec(8, 8)}
	return opts, profiles, specs
}

// TestCheckpointResumeBitIdentical kills a miss-rate run in-process after
// three committed units, closes the checkpoint, resumes from the file, and
// requires the resumed results to equal an uninterrupted run exactly —
// bit-identical, not approximately equal.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	defer ResetStop()
	opts, profiles, specs := resumeFixture(t)

	ref, err := missRates(sweep{opts, profiles, specs, dSide})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.log")
	cp := NewCheckpoint(path)
	const stopAfter = 3
	cp.SetAfterRecord(func(total int) {
		if total >= stopAfter {
			RequestStop()
		}
	})
	o1 := opts
	o1.Checkpoint = cp
	partial, err := missRates(sweep{o1, profiles, specs, dSide})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if cp.Len() < stopAfter {
		t.Fatalf("checkpoint has %d units, want >= %d", cp.Len(), stopAfter)
	}
	if cp.Len() >= len(profiles)*(len(specs)+1) {
		t.Fatalf("interrupt too late: all %d units completed", cp.Len())
	}
	// Whatever profiles did complete must already match the reference.
	for name, row := range partial {
		if !reflect.DeepEqual(row, ref[name]) {
			t.Errorf("partial row %s differs from reference", name)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	ResetStop()
	cp2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Len() != cp.Len() {
		t.Fatalf("reloaded checkpoint has %d units, want %d", cp2.Len(), cp.Len())
	}
	o2 := opts
	o2.Checkpoint = cp2
	res, err := missRates(sweep{o2, profiles, specs, dSide})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("resumed results differ from uninterrupted run:\n got %+v\nwant %+v", res, ref)
	}
}
