package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildCheckpointBytes writes a checkpoint with n units and returns the
// on-disk bytes plus the recorded units.
func buildCheckpointBytes(t *testing.T, n int) ([]byte, map[string]UnitResult) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	c := NewCheckpoint(path)
	want := map[string]UnitResult{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("v1|side=0|n=1000|size=16384|line=32|spec=MF%d|seed=0|prof=bench%d", i, i)
		u := UnitResult{Misses: uint64(100 + i), Accesses: uint64(1000 + i), PDHit: uint64(i)}
		c.Record(key, rawJSON(u))
		want[key] = u
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, want
}

func loadBytes(t *testing.T, data []byte) (*Checkpoint, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadCheckpoint(path)
}

// TestLoadCheckpointTornTail sweeps every truncation point of a real
// checkpoint file: a torn file must either be rejected outright (cut so
// early the schema version is gone) or recover a subset of the original
// units with bit-exact values and a non-empty LoadWarning. It must never
// fail the resume once the schema version survives the tear.
func TestLoadCheckpointTornTail(t *testing.T) {
	data, want := buildCheckpointBytes(t, 10)
	full, err := loadBytes(t, data)
	if err != nil {
		t.Fatalf("clean load: %v", err)
	}
	if full.Len() != len(want) || full.LoadWarning() != "" {
		t.Fatalf("clean load: %d units, warning %q", full.Len(), full.LoadWarning())
	}

	sawRecovered := false
	for cut := 0; cut < len(data); cut++ {
		c, err := loadBytes(t, data[:cut])
		if err != nil {
			continue // unrecoverable prefix: acceptable only as an error
		}
		if cut == 0 {
			t.Fatal("empty file loaded without error") // ReadFile gives empty, parse must fail
		}
		if c.Len() > len(want) {
			t.Fatalf("cut %d: recovered %d units, more than the %d written", cut, c.Len(), len(want))
		}
		if c.Len() < len(want) && c.LoadWarning() == "" {
			t.Fatalf("cut %d: lost units (%d of %d) with empty LoadWarning", cut, c.Len(), len(want))
		}
		if c.LoadWarning() != "" {
			sawRecovered = true
		}
		for key, u := range want {
			got, ok := c.Lookup(key)
			if ok && string(got) != string(rawJSON(u)) {
				t.Fatalf("cut %d: unit %s recovered as %+v, want %+v", cut, key, got, u)
			}
		}
	}
	if !sawRecovered {
		t.Fatal("no truncation point exercised prefix recovery")
	}
}

// TestLoadCheckpointTornLastRecord is the headline case: the file loses
// exactly its tail mid-final-record and the resume keeps everything else.
func TestLoadCheckpointTornLastRecord(t *testing.T) {
	data, want := buildCheckpointBytes(t, 10)
	// Cut inside the final unit's value object: 20 bytes back is always
	// mid-record for this layout.
	c, err := loadBytes(t, data[:len(data)-20])
	if err != nil {
		t.Fatalf("torn load failed instead of recovering: %v", err)
	}
	if c.LoadWarning() == "" {
		t.Fatal("recovered load carries no warning")
	}
	if c.Len() < len(want)-1 || c.Len() >= len(want) {
		t.Fatalf("recovered %d units, want %d", c.Len(), len(want)-1)
	}
}

// TestLoadCheckpointWrongSchemaStillRejected: recovery must not soften
// the schema gate.
func TestLoadCheckpointWrongSchemaStillRejected(t *testing.T) {
	for _, data := range []string{
		`{"schemaVersion":99,"units":{}}`,         // clean wrong-schema
		`{"schemaVersion":99,"units":{"k":{"mis`,  // torn wrong-schema
		`{"units":{"k":{"misses":1,"accesses":2}`, // torn, version lost
		`"just a string"`,                         // not a checkpoint
		`{"schemaVersion":"one","units":{"k":{"m`, // unreadable version
	} {
		if _, err := loadBytes(t, []byte(data)); err == nil {
			t.Errorf("load of %q succeeded, want error", data)
		}
	}
}

// FuzzLoadCheckpointTorn hammers the loader with truncated and
// bit-flipped variants of a real checkpoint: whatever the damage, the
// loader must return cleanly — recover, or reject with an error — and a
// recovery must never invent more units than the file ever held.
func FuzzLoadCheckpointTorn(f *testing.F) {
	dir, err := os.MkdirTemp("", "ckfuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "ck.json")
	c := NewCheckpoint(path)
	const nUnits = 6
	for i := 0; i < nUnits; i++ {
		c.Record(fmt.Sprintf("v1|spec=MF%d|prof=p%d", i, i), rawJSON(UnitResult{Misses: uint64(i), Accesses: uint64(10 * i)}))
	}
	if err := c.Save(); err != nil {
		f.Fatal(err)
	}
	base, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(len(base), -1, uint8(0))
	f.Add(len(base)/2, -1, uint8(0))
	f.Add(len(base), 10, uint8(0x40))
	f.Fuzz(func(t *testing.T, cut, flip int, xor uint8) {
		data := append([]byte(nil), base...)
		if cut >= 0 && cut < len(data) {
			data = data[:cut]
		}
		if flip >= 0 && flip < len(data) {
			data[flip] ^= xor
		}
		p := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(p)
		if err != nil {
			return // rejection is always acceptable for damaged input
		}
		if got.Len() > nUnits {
			t.Fatalf("recovered %d units from a %d-unit checkpoint", got.Len(), nUnits)
		}
	})
}
