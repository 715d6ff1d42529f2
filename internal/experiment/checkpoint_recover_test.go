package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bcache/internal/reclog"
)

// buildCheckpointBytes writes a checkpoint log with n units and returns
// its bytes, the recorded units, and the file size after each record.
func buildCheckpointBytes(t *testing.T, n int) ([]byte, map[string]UnitResult, []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.log")
	c := NewCheckpoint(path)
	want := map[string]UnitResult{}
	var ends []int
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("v1|side=0|n=1000|size=16384|line=32|spec=MF%d|seed=0|prof=bench%d", i, i)
		u := UnitResult{Misses: uint64(100 + i), Accesses: uint64(1000 + i), PDHit: uint64(i)}
		c.Record(key, rawJSON(u))
		want[key] = u
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(info.Size()))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, want, ends
}

func writeBytes(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func loadBytes(t *testing.T, data []byte) (*Checkpoint, error) {
	t.Helper()
	return LoadCheckpoint(writeBytes(t, data))
}

// TestLoadCheckpointTornTail cuts a checkpoint log at every byte of its
// last two records: the load must keep exactly the records whose bytes
// all survive, bit-exact, and warn exactly when the cut tore a record.
func TestLoadCheckpointTornTail(t *testing.T) {
	const n = 10
	data, want, ends := buildCheckpointBytes(t, n)
	full, err := loadBytes(t, data)
	if err != nil {
		t.Fatalf("clean load: %v", err)
	}
	if full.Len() != n || full.LoadWarning() != "" {
		t.Fatalf("clean load: %d units, warning %q", full.Len(), full.LoadWarning())
	}
	for cut := ends[n-3]; cut < len(data); cut++ {
		c, err := loadBytes(t, data[:cut])
		if err != nil {
			t.Fatalf("cut %d: torn load failed instead of recovering: %v", cut, err)
		}
		kept := n - 2
		if cut >= ends[n-2] {
			kept = n - 1
		}
		if c.Len() != kept {
			t.Fatalf("cut %d: recovered %d units, want %d", cut, c.Len(), kept)
		}
		if boundary := cut == ends[kept-1]; boundary != (c.LoadWarning() == "") {
			t.Fatalf("cut %d: warning %q at a record boundary: %v", cut, c.LoadWarning(), boundary)
		}
		for key, u := range want {
			if got, ok := c.Lookup(key); ok && string(got) != string(rawJSON(u)) {
				t.Fatalf("cut %d: unit %s recovered as %s, want %+v", cut, key, got, u)
			}
		}
	}
}

// TestLoadCheckpointTornLastRecord is the headline case: the log loses
// its tail mid-final-record and the resume keeps everything else.
func TestLoadCheckpointTornLastRecord(t *testing.T) {
	data, want, _ := buildCheckpointBytes(t, 10)
	c, err := loadBytes(t, data[:len(data)-20])
	if err != nil {
		t.Fatalf("torn load failed instead of recovering: %v", err)
	}
	if c.LoadWarning() == "" {
		t.Fatal("recovered load carries no warning")
	}
	if c.Len() != len(want)-1 {
		t.Fatalf("recovered %d units, want %d", c.Len(), len(want)-1)
	}
}

// TestResumeTornLogAppends resumes a torn log, appends, and reloads: the
// intact prefix and the new records come back, and none is stranded
// behind the torn bytes, which the first append cut.
func TestResumeTornLogAppends(t *testing.T) {
	data, want, _ := buildCheckpointBytes(t, 6)
	path := writeBytes(t, data[:len(data)-7])
	c, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("new%d", i)
		c.Record(key, rawJSON(UnitResult{Misses: uint64(i)}))
		want[key] = UnitResult{Misses: uint64(i)}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.LoadWarning() != "" || re.Len() != len(want)-1 {
		t.Fatalf("reload: %d units (want %d), warning %q", re.Len(), len(want)-1, re.LoadWarning())
	}
	for key, u := range want {
		got, ok := re.Lookup(key)
		if ok && string(got) != string(rawJSON(u)) || !ok && !strings.HasPrefix(key, "v1|") {
			t.Fatalf("unit %s reloaded as %s (present %v), want %+v", key, got, ok, u)
		}
	}
}

// TestLoadCheckpointWrongSchemaStillRejected: recovery must not soften
// the format gate: a file that is not a record log is refused however
// much of it survives.
func TestLoadCheckpointWrongSchemaStillRejected(t *testing.T) {
	data, _, _ := buildCheckpointBytes(t, 2)
	for _, bad := range [][]byte{
		[]byte(`{"schemaVersion":1,"units":{"k":{"misses":1}}}`), // the old JSON checkpoint
		[]byte(`"just a string"`),
		data[:20],                               // header torn
		append([]byte("BCRLOG99"), data[8:]...), // another format version
	} {
		if _, err := loadBytes(t, bad); err == nil {
			t.Errorf("load of %q succeeded, want error", bad)
		}
	}
}

// writeShard writes a worker shard of plan 5 holding recs, one entry per
// record.
func writeShard(t *testing.T, recs ...reclog.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard-000-000.bin")
	w, err := reclog.Open(path, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if _, err := w.Append(reclog.Entry{Unit: i, Records: []reclog.Record{r}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadCheckpointMergesShards: -resume -dist-dir loads worker shards
// through the same reader, appending their records to the checkpoint
// log so they outlive the shard directory; a shard is no checkpoint.
func TestLoadCheckpointMergesShards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.log")
	c := NewCheckpoint(path)
	c.Record("a", rawJSON(UnitResult{Misses: 1}))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	shard := writeShard(t,
		reclog.Record{Key: "a", Val: rawJSON(UnitResult{Misses: 1})},
		reclog.Record{Key: "b", Val: rawJSON(UnitResult{Misses: 2})})
	c, err := LoadCheckpoint(path, shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := re.Lookup("b"); re.Len() != 2 || !ok || string(b) != string(rawJSON(UnitResult{Misses: 2})) {
		t.Fatalf("checkpoint after a shard load holds %d units, b = %s", re.Len(), b)
	}
	if _, err := LoadCheckpoint(shard); err == nil || !strings.Contains(err.Error(), "worker shard") {
		t.Fatalf("shard loaded as a checkpoint: %v", err)
	}
}

// TestLoadCheckpointRefusesForeignBuild: -resume refuses a checkpoint or
// a worker shard written by another build, naming both builds.
func TestLoadCheckpointRefusesForeignBuild(t *testing.T) {
	self, err := reclog.Self()
	if err != nil {
		t.Fatal(err)
	}
	foreign := self
	foreign[31] ^= 0x80
	data, _, _ := buildCheckpointBytes(t, 2)
	shardData, err := os.ReadFile(writeShard(t, reclog.Record{Key: "k", Val: json.RawMessage(`{}`)}))
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range [][]byte{data, shardData} {
		raw[8+31] ^= 0x80
	}
	for name, load := range map[string]func() (*Checkpoint, error){
		"checkpoint": func() (*Checkpoint, error) { return LoadCheckpoint(writeBytes(t, data)) },
		"shard":      func() (*Checkpoint, error) { return LoadCheckpoint("", writeBytes(t, shardData)) },
	} {
		_, err := load()
		if err == nil || !strings.Contains(err.Error(), self.String()) || !strings.Contains(err.Error(), foreign.String()) {
			t.Errorf("%s of another build loaded with %v, want a refusal naming both builds", name, err)
		}
	}
}

// FuzzLoadCheckpointTorn feeds the one record-log reader arbitrary
// bytes, seeded with a checkpoint log and a worker shard, whole, cut and
// bit-flipped, and loads them both as a checkpoint and as a shard.
// Whatever the damage, the loader must return cleanly — recover, or
// reject with an error — and a recovery must never report more than the
// bytes could hold.
func FuzzLoadCheckpointTorn(f *testing.F) {
	dir, err := os.MkdirTemp("", "ckfuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "ck.log")
	c := NewCheckpoint(path)
	for i := 0; i < 4; i++ {
		c.Record(fmt.Sprintf("v1|spec=MF%d|prof=p%d", i, i), rawJSON(UnitResult{Misses: uint64(i), Accesses: uint64(10 * i)}))
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	ck, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	shardPath := filepath.Join(dir, "shard.bin")
	w, err := reclog.Open(shardPath, 5, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(reclog.Entry{Unit: i, Records: []reclog.Record{{Key: fmt.Sprintf("k%d", i), Val: json.RawMessage(`{}`)}}}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	shard, err := os.ReadFile(shardPath)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), ck...)
	flipped[len(flipped)-10] ^= 0x40
	f.Add(ck)
	f.Add(ck[:len(ck)/2])
	f.Add(flipped)
	f.Add(shard)
	f.Add(shard[:len(shard)-5])
	f.Add(append(append([]byte(nil), shard[:48]...), 0xff, 0xff, 0xff, 0xff))
	// One file per fuzzing process: its inputs run one at a time.
	p := filepath.Join(dir, "fz.log")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := reclog.Read(p); err == nil {
			// Every record takes 12 bytes of framing and some payload.
			if l.End > int64(len(data)) || len(l.Entries) > len(data)/12 || l.Torn != (l.End < int64(len(data))) {
				t.Fatalf("read End %d, %d entries, torn %v from %d bytes", l.End, len(l.Entries), l.Torn, len(data))
			}
		}
		for _, load := range []func() (*Checkpoint, error){
			func() (*Checkpoint, error) { return LoadCheckpoint(p) },
			func() (*Checkpoint, error) { return LoadCheckpoint("", p) },
		} {
			if got, err := load(); err == nil && got.Len() > len(data)/12 {
				t.Fatalf("recovered %d units from %d bytes", got.Len(), len(data))
			}
		}
	})
}
