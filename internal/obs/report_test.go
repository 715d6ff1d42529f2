package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/stats"
	"bcache/internal/victim"
)

// runReport simulates a PD-churn workload on a B-Cache with a sampler
// attached and builds the full report.
func runReport(t *testing.T, n int) *Report {
	t.Helper()
	bc, err := core.New(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	s := NewIntervalSampler(1000, bc.Geometry().Frames)
	bc.SetProbe(s)
	frames := stats.NewFrames(bc.Geometry().Frames)
	for i := 0; i < n; i++ {
		frames.Count(bc.Access(addrAt(i), i%5 == 0))
	}
	r := NewReport(bc, frames)
	r.AttachSampler(s)
	r.SetThroughput(125*time.Millisecond, uint64(n)*3)
	return r
}

func TestReportRoundTrip(t *testing.T) {
	r := runReport(t, 30000)
	if r.SchemaVersion != SchemaVersion {
		t.Fatalf("schema %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	if r.PD == nil || r.PD.Programmed == 0 {
		t.Fatal("B-Cache report missing PD totals")
	}
	if r.Balance == nil {
		t.Fatal("report missing balance classification")
	}
	if len(r.Series) < 2 {
		t.Fatalf("report has %d series, want >= 2", len(r.Series))
	}
	names := map[string]bool{}
	for _, s := range r.Series {
		names[s.Name] = true
		if len(s.Points) < 10 {
			t.Fatalf("series %s has %d points, want >= 10", s.Name, len(s.Points))
		}
	}
	for _, want := range []string{"miss_rate", "pd_miss_rate", "reprograms_per_kaccess", "evictions_per_kaccess"} {
		if !names[want] {
			t.Fatalf("missing series %q (have %v)", want, names)
		}
	}
	if r.Heatmap == nil || r.Heatmap.Buckets == 0 || len(r.Heatmap.Rows) != len(r.Samples) {
		t.Fatalf("bad heatmap: %+v", r.Heatmap)
	}
	if r.Throughput == nil || r.Throughput.AccessesPerSecond <= 0 || r.Throughput.InstructionsPerSecond <= 0 {
		t.Fatalf("bad throughput: %+v", r.Throughput)
	}

	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Totals != r.Totals || *back.PD != *r.PD || len(back.Series) != len(r.Series) {
		t.Fatal("report did not survive the round trip")
	}
}

func TestReportSchemaVersionRejected(t *testing.T) {
	r := runReport(t, 5000)
	r.SchemaVersion = SchemaVersion + 1
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("future schema version accepted")
	}
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestReportStableFieldNames(t *testing.T) {
	r := runReport(t, 5000)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	// The schema contract: these top-level keys are what jq queries and
	// diff tooling key on. Renaming any of them is a schema bump.
	for _, key := range []string{"schemaVersion", "config", "totals", "pd", "balance", "throughput", "series", "samples", "heatmap"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("marshalled report lost key %q", key)
		}
	}
	cfg := m["config"].(map[string]any)
	if cfg["cache"] == "" || cfg["frames"] == nil || cfg["interval"] == nil {
		t.Fatalf("config keys missing: %v", cfg)
	}
}

func TestReportOnPlainCacheHasNoPD(t *testing.T) {
	c, err := cache.NewDirectMapped(16*1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	s := NewIntervalSampler(100, c.Geometry().Frames)
	cache.AttachProbe(c, s)
	for i := 0; i < 5000; i++ {
		c.Access(addrAt(i), false)
	}
	r := NewReport(c, nil)
	r.AttachSampler(s)
	if r.PD != nil {
		t.Fatal("direct-mapped report grew PD totals")
	}
	if len(r.Series) != 2 {
		t.Fatalf("direct-mapped report has %d series, want exactly 2 (no PD series)", len(r.Series))
	}
}

func TestReportVictimBufferHits(t *testing.T) {
	vc, err := victim.New(16*1024, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		vc.Access(addrAt(i), false)
	}
	r := NewReport(vc, nil)
	if r.Totals.BufferHits != vc.BufferHits {
		t.Fatalf("report bufferHits %d != cache %d", r.Totals.BufferHits, vc.BufferHits)
	}
}

func TestReportEmptyRun(t *testing.T) {
	c, err := cache.NewDirectMapped(1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Never accessed: no balance, zero totals, no panic.
	r := NewReport(c, stats.NewFrames(c.Geometry().Frames))
	if r.Balance != nil {
		t.Fatal("idle run produced a balance block")
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err != nil {
		t.Fatal(err)
	}
}
