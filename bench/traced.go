package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"bcache/internal/addr"
	"bcache/internal/altcache"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/cpu"
	"bcache/internal/experiment"
	"bcache/internal/hier"
	"bcache/internal/obs/tracespan"
	"bcache/internal/rng"
	"bcache/internal/stackdist"
	"bcache/internal/trace"
	"bcache/internal/victim"
	"bcache/internal/workload"
)

// metricDef is a reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are measured on untraced experiments processes.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MiB"}, {"setup_s", "s"},
}

// perLayerMetrics lists every per-layer metric a traced run reports, in
// print order; BENCHMARK.json's per_layer list matches it.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"experiment.units", "count"},
		{"experiment.unit_p50_ms", "ms"},
		{"experiment.unit_p90_ms", "ms"},
		{"experiment.unit_s", "s"},
		{"experiment.busy_frac", "fraction"},
		{"experiment.outside_units_s", "s"},
		{"experiment.retries", "count"},
		{"experiment.failed_units", "count"},
		{"experiment.accesses", "count"},
		{"experiment.maccess_per_s", "Maccess/s"},
	}
	for _, e := range experiment.All() {
		defs = append(defs, metricDef{"exp." + e.ID + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"tracecache.builds", "count"},
		metricDef{"tracecache.hits", "count"},
		metricDef{"tracecache.reloads", "count"},
		metricDef{"tracecache.spills", "count"},
		metricDef{"tracecache.hit_frac", "fraction"},
		metricDef{"tracecache.build_s", "s"},
		metricDef{"tracecache.reload_s", "s"},
		metricDef{"tracecache.peak_mb", "MiB"},
		metricDef{"tracecache.spill_mb", "MiB"},
	)
	for _, f := range unitFamilies {
		defs = append(defs, metricDef{f, "s"})
	}
	defs = append(defs,
		metricDef{"render.csv_s", "s"},
		metricDef{"render.rows", "count"},
		metricDef{"workload.gen_minstr_per_s", "Minstr/s"},
	)
	for _, e := range probeEngines {
		defs = append(defs, metricDef{"engine." + e.name + "_maccess_per_s", "Maccess/s"})
	}
	return append(defs,
		metricDef{"cpu.run_minstr_per_s", "Minstr/s"},
		metricDef{"obs.trace_overhead_frac", "fraction"},
	)
}

// tracedPass is one in-process run of a workload with telemetry on.
type tracedPass struct {
	metrics map[string]float64
	wallS   float64
	journal *tracespan.Journal
	// bad lists experiments that failed or whose output differs from
	// the golden digests.
	bad []string
}

// runTraced runs w's experiments in this process, as the CLI
// would, with a telemetry hub installed, and folds the hub's journal.
// The experiment package's trace cache, timed-result memo and unit memo
// are process-wide, so they are reset first (ResetTraceCache also
// removes spill files).
func runTraced(w workloadSpec, workers int, want map[string]string) (tracedPass, error) {
	experiment.ResetTraceCache()
	experiment.ResetTimedCache()
	experiment.ResetUnitMemo()
	defer experiment.CleanupTraceSpill()
	tel := experiment.NewTelemetry(0, nil)
	experiment.SetTelemetry(tel)
	defer experiment.SetTelemetry(nil)
	j := tel.Journal()
	opts := w.opts(workers)

	var csv bytes.Buffer
	var failed []string
	rows := 0
	start := time.Now()
	for _, id := range w.ids {
		e, err := experiment.ByID(id)
		if err != nil {
			return tracedPass{}, err
		}
		tel.BeginExperiment(id)
		t0 := time.Now()
		tables, err := e.Run(opts)
		tel.EndExperiment(id, t0, time.Since(t0))
		if err != nil {
			failed = append(failed, id)
		}
		t1 := time.Now()
		for _, t := range tables {
			if err := t.WriteCSV(&csv); err != nil {
				return tracedPass{}, err
			}
			rows += len(t.Rows)
		}
		j.Record(tracespan.Span{Kind: kindRender, Name: id, Worker: tracespan.SharedWorker, Unit: -1,
			StartUnixNano: t1.UnixNano(), DurNanos: int64(time.Since(t1))})
	}
	end := time.Now()

	tc := experiment.TraceCacheStats()
	prog := tel.ProgressSnapshot()
	m, err := fold(j.Snapshot(), j.Dropped(), workers, start.UnixNano(), end.UnixNano())
	if err != nil {
		return tracedPass{}, err
	}
	wall := end.Sub(start).Seconds()
	m["experiment.retries"] = float64(prog.RetriedUnits)
	m["experiment.failed_units"] = float64(prog.FailedUnits)
	m["experiment.accesses"] = float64(prog.Accesses)
	m["experiment.maccess_per_s"] = float64(prog.Accesses) / wall / 1e6
	m["tracecache.builds"] = float64(tc.Misses)
	m["tracecache.hits"] = float64(tc.Hits)
	m["tracecache.reloads"] = float64(tc.Reloads)
	m["tracecache.spills"] = float64(tc.Spills)
	if lookups := tc.Hits + tc.Misses + tc.Reloads; lookups > 0 {
		m["tracecache.hit_frac"] = float64(tc.Hits) / float64(lookups)
	}
	m["tracecache.peak_mb"] = float64(tc.PeakBytes) / (1 << 20)
	m["tracecache.spill_mb"] = float64(tc.SpillBytes) / (1 << 20)
	m["render.rows"] = float64(rows)

	for _, id := range badBlocks(csv.Bytes(), w.ids, want) {
		if !slices.Contains(failed, id) {
			failed = append(failed, id)
		}
	}
	return tracedPass{metrics: m, wallS: wall, journal: j, bad: failed}, nil
}

// The probes time single-threaded calls into each layer on the streams
// of two real profiles — gcc (integer, branchy) and equake (floating
// point, conflict-bound) — at the CLI's default instruction count, at
// the paper's 16 kB / 32 B L1 geometry.
const (
	probeInstr = 2_000_000
	probeSize  = 16 * 1024
	probeLine  = 32
)

var probeProfiles = []string{"gcc", "equake"}

// probeEngines are the replay engines the probes time. stackdist5 and
// fifoprofile5 answer the five LRU/FIFO shapes a figure unit asks for
// (1, 2, 4, 8 and 32 ways) in one pass.
var probeEngines = []struct {
	name  string
	build func() (func(addr.Addr, bool), error)
}{
	{"dm", cacheEngine(func() (cache.Cache, error) { return cache.NewDirectMapped(probeSize, probeLine) })},
	{"setassoc8", cacheEngine(func() (cache.Cache, error) {
		return cache.NewSetAssoc(probeSize, probeLine, 8, cache.LRU, rng.New(1))
	})},
	{"bcache_mf8", cacheEngine(func() (cache.Cache, error) {
		return core.New(core.Config{SizeBytes: probeSize, LineBytes: probeLine, MF: 8, BAS: 8, Policy: cache.LRU})
	})},
	{"victim16", cacheEngine(func() (cache.Cache, error) { return victim.New(probeSize, probeLine, 16) })},
	{"stackdist5", func() (func(addr.Addr, bool), error) {
		p, err := stackdist.NewProfile(probeLine, fiveGeoms())
		if err != nil {
			return nil, err
		}
		return func(a addr.Addr, _ bool) { p.Access(a) }, nil
	}},
	{"fifoprofile5", func() (func(addr.Addr, bool), error) {
		p, err := stackdist.NewFIFOProfile(probeLine, fiveGeoms())
		if err != nil {
			return nil, err
		}
		return func(a addr.Addr, _ bool) { p.Access(a) }, nil
	}},
	{"hac", cacheEngine(func() (cache.Cache, error) { return altcache.NewHAC(probeSize, probeLine) })},
}

func cacheEngine(build func() (cache.Cache, error)) func() (func(addr.Addr, bool), error) {
	return func() (func(addr.Addr, bool), error) {
		c, err := build()
		if err != nil {
			return nil, err
		}
		return func(a addr.Addr, w bool) { c.Access(a, w) }, nil
	}
}

func fiveGeoms() []stackdist.Geom {
	frames := probeSize / probeLine
	var g []stackdist.Geom
	for _, w := range []int{1, 2, 4, 8, 32} {
		g = append(g, stackdist.Geom{Sets: frames / w, Ways: w})
	}
	return g
}

// runProbes times the generator, every probe engine and the CPU model
// on each probe profile, recording one bench.probe span per timed call
// into j, and reports throughput per layer.
func runProbes(j *tracespan.Journal) (map[string]float64, error) {
	timed := func(name string, f func() error) (time.Duration, error) {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		j.Record(tracespan.Span{Kind: kindProbe, Name: name, Worker: tracespan.SharedWorker, Unit: -1,
			StartUnixNano: t0.UnixNano(), DurNanos: int64(d)})
		return d, err
	}
	var gen, run time.Duration
	engine := map[string]time.Duration{}
	accesses := 0
	for _, name := range probeProfiles {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		g, err := workload.New(p)
		if err != nil {
			return nil, err
		}
		recs := make([]trace.Record, probeInstr)
		d, _ := timed(name+"/generate", func() error {
			for i := range recs {
				recs[i], _ = g.Next()
			}
			return nil
		})
		gen += d
		var data []cache.MemAccess
		for _, r := range recs {
			if r.Kind.IsMem() {
				data = append(data, cache.NewMemAccess(r.Mem, r.Kind == trace.Store))
			}
		}
		accesses += len(data)
		for _, e := range probeEngines {
			access, err := e.build()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", e.name, err)
			}
			d, _ := timed(name+"/"+e.name, func() error {
				for _, m := range data {
					access(m.Addr(), m.Write())
				}
				return nil
			})
			engine[e.name] += d
		}
		ic, err := cache.NewDirectMapped(probeSize, probeLine)
		if err != nil {
			return nil, err
		}
		dc, err := cache.NewDirectMapped(probeSize, probeLine)
		if err != nil {
			return nil, err
		}
		h, err := hier.New(ic, dc, hier.Defaults())
		if err != nil {
			return nil, err
		}
		d, err = timed(name+"/cpu.Run", func() error {
			_, err := cpu.Run(trace.NewSliceStream(recs), h, cpu.Defaults(), probeInstr)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("probe cpu.Run on %s: %w", name, err)
		}
		run += d
	}
	instr := float64(probeInstr * len(probeProfiles))
	m := map[string]float64{
		"workload.gen_minstr_per_s": instr / gen.Seconds() / 1e6,
		"cpu.run_minstr_per_s":      instr / run.Seconds() / 1e6,
	}
	for name, d := range engine {
		m["engine."+name+"_maccess_per_s"] = float64(accesses) / d.Seconds() / 1e6
	}
	return m, nil
}
