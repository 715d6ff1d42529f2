package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bcache/internal/obs"
	"bcache/internal/trace"
)

func TestOpenStreamBenchmark(t *testing.T) {
	st, err := openStream("gcc", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("benchmark stream empty")
	}
	if _, err := openStream("nosuch", "", ""); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestOpenStreamTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(trace.Record{PC: 4, Kind: trace.Int, Lat: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := openStream("ignored", path, "")
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := st.Next()
	if !ok || rec.PC != 4 {
		t.Fatalf("trace replay = %+v, %v", rec, ok)
	}
	if _, err := openStream("ignored", filepath.Join(t.TempDir(), "missing.bct"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestOpenStreamJSONProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	def := `{"name":"custom",
	  "code":{"footprint":8192,"segments":8,"segLen":6,"hotFrac":0.9,"hotSegs":4},
	  "mix":{"mem":0.3},
	  "regions":[{"kind":"hotspot","hot":64,"weight":1}]}`
	if err := os.WriteFile(path, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openStream("", "", path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("custom profile stream empty")
	}
	if _, err := openStream("", "", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing profile accepted")
	}
}

// TestRunWritesReport covers the three-cache matrix a run report is
// read on — direct-mapped, 8-way LRU and B-Cache (MF 8, BAS 8) — and
// checks each report's series, samples, throughput and, for B-Cache
// alone, its PD totals.
func TestRunWritesReport(t *testing.T) {
	for _, tc := range []struct {
		key    string
		ways   int
		series []string
		pd     bool
	}{
		{"dm", 1, []string{"miss_rate", "evictions_per_kaccess"}, false},
		{"sa:8way:lru", 8, []string{"miss_rate", "evictions_per_kaccess"}, false},
		{"bc:mf8:bas8:pol0", 1, []string{"miss_rate", "evictions_per_kaccess", "pd_miss_rate", "reprograms_per_kaccess"}, true},
	} {
		t.Run(tc.key, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.json")
			cfg := runCfg{
				bench: "equake", cache: tc.key, size: 16 * 1024, line: 32,
				n: 400_000, side: "d", reportPath: path, interval: 4096,
			}
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
			r, err := obs.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if r.Config.Benchmark != "equake" || r.Config.Side != "d" || r.Config.Ways != tc.ways {
				t.Fatalf("report config = %+v", r.Config)
			}
			if r.Totals.Accesses == 0 {
				t.Fatalf("report totals = %+v", r.Totals)
			}
			var names []string
			for _, s := range r.Series {
				names = append(names, s.Name)
				if len(s.Points) < 10 {
					t.Fatalf("series %q has %d points, want >= 10", s.Name, len(s.Points))
				}
			}
			if !slices.Equal(names, tc.series) {
				t.Fatalf("report series = %v, want %v", names, tc.series)
			}
			if len(r.Samples) < 10 {
				t.Fatalf("report has %d samples, want >= 10", len(r.Samples))
			}
			if (r.PD != nil) != tc.pd {
				t.Fatalf("report PD totals = %+v, want present only for B-Cache", r.PD)
			}
			if r.Throughput == nil || r.Throughput.AccessesPerSecond <= 0 {
				t.Fatalf("report throughput = %+v", r.Throughput)
			}
		})
	}
}

func TestRunReportUnsupportedCache(t *testing.T) {
	cfg := runCfg{
		bench: "gcc", cache: "column", size: 16 * 1024, line: 32,
		n: 1000, side: "d", reportPath: filepath.Join(t.TempDir(), "r.json"),
		interval: 4096,
	}
	if err := run(cfg); err == nil {
		t.Fatal("cache without a probe attach point accepted -report")
	}
}

// TestRunRejectsBadInput: a bad -side or -cache fails the run before
// it simulates anything, in miss-rate and -ipc mode alike, and the
// cache error shows the key grammar.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cache     string
		side      string
		n         uint64
		ipc       bool
		wantInErr string
	}{
		{"side", "dm", "x", 0, false, `-side "x"`},
		{"side-ipc", "dm", "x", 1000, true, `-side "x"`},
		{"cache", "bcache", "d", 1000, false, "bc:mf<M>:bas<B>:pol<0|1>"},
		{"cache-ipc", "8way", "d", 1000, true, "sa:<W>way:<lru|fifo|random>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := runCfg{bench: "gcc", cache: tc.cache, size: 16 * 1024, line: 32, n: tc.n, side: tc.side, ipc: tc.ipc}
			err := run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.wantInErr) {
				t.Fatalf("run = %v, want an error naming %s", err, tc.wantInErr)
			}
		})
	}
}

func TestOpenStreamMicro(t *testing.T) {
	st, err := openStream("micro-thrash4", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("micro stream empty")
	}
	if _, err := openStream("micro-nosuch", "", ""); err == nil {
		t.Fatal("unknown micro accepted")
	}
}
