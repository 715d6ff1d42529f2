// Package main_test holds the benchmark harness: one testing.B per paper
// table/figure (regenerating it at reduced scale and reporting the
// headline numbers as custom metrics), plus ablation benches for the
// design choices DESIGN.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The metrics reported (b.ReportMetric) are the quantities EXPERIMENTS.md
// tracks: miss-rate reductions in percent, IPC improvements, normalized
// energy, decoder slack in ns, and area overheads.
package main_test

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/altcache"
	"bcache/internal/area"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/energy"
	"bcache/internal/experiment"
	"bcache/internal/rng"
	"bcache/internal/timing"
	"bcache/internal/trace"
	"bcache/internal/victim"
	"bcache/internal/workload"
)

// benchOpts scales experiments so the whole suite finishes in minutes.
func benchOpts() experiment.Opts {
	o := experiment.DefaultOpts()
	o.Instructions = 400_000
	return o
}

// coldStart drops the unit memo and the trace cache with the timer
// stopped, so every iteration simulates from scratch instead of timing
// the previous iteration's memo hits.
func coldStart(b *testing.B) {
	b.StopTimer()
	experiment.ResetUnitMemo()
	experiment.ResetTraceCache()
	b.StartTimer()
}

// runExperiment executes a registered experiment once per bench iteration
// and reports rows produced.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	defer experiment.ResetTraceCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldStart(b)
		tables, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for _, t := range tables {
			rows += len(t.Rows)
		}
		b.ReportMetric(float64(rows), "rows")
	}
}

func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkFig8 runs the timed (CPU model) comparison on a conflict-bound
// benchmark and reports the B-Cache's IPC improvement.
func BenchmarkFig8(b *testing.B) { benchTimed(b, false) }

// BenchmarkFig9 runs the same simulation and reports normalized energy.
func BenchmarkFig9(b *testing.B) { benchTimed(b, true) }

func benchTimed(b *testing.B, wantEnergy bool) {
	b.Helper()
	e, err := experiment.ByID("fig8")
	if wantEnergy {
		e, err = experiment.ByID("fig9")
	}
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	opts.Instructions = 200_000
	defer experiment.ResetTraceCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldStart(b)
		tables, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tables[0].Rows)), "rows")
	}
}

// BenchmarkTable1 regenerates the decoder-timing table and reports the
// minimum slack (must stay positive: the paper's §5.1 conclusion).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := timing.Table1(6)
		minSlack := rows[0].Slack
		for _, r := range rows {
			if r.Slack < minSlack {
				minSlack = r.Slack
			}
		}
		b.ReportMetric(minSlack*1000, "min-slack-ps")
	}
}

// BenchmarkTable2 reports the B-Cache's area overhead in percent
// (paper: 4.3%).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := area.Baseline(16*1024, 32)
		if err != nil {
			b.Fatal(err)
		}
		bc, err := area.BCache(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: 8, BAS: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*bc.OverheadVs(base), "overhead-%")
	}
}

// BenchmarkTable3 reports the B-Cache per-access energy overhead in
// percent (paper: 10.5%).
func BenchmarkTable3(b *testing.B) {
	p := energy.Defaults()
	for i := 0; i < b.N; i++ {
		base, bc, err := p.Table3(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: 8, BAS: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(bc.Total()/base.Total()-1), "overhead-%")
	}
}

// ---- Ablations (DESIGN.md §4) ----

// dataStream materializes one benchmark's data accesses.
func dataStream(b *testing.B, bench string, n int) []trace.Record {
	b.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]trace.Record, 0, n/3)
	for i := 0; i < n; i++ {
		r, _ := g.Next()
		if r.Kind.IsMem() {
			recs = append(recs, r)
		}
	}
	return recs
}

func missRateOn(recs []trace.Record, c cache.Cache) float64 {
	for _, r := range recs {
		c.Access(r.Mem, r.Kind == trace.Store)
	}
	return c.Stats().MissRate()
}

// BenchmarkAblationReplacement compares LRU vs random replacement in the
// B-Cache (§3.3: LRU may achieve a better hit rate; random is cheaper).
func BenchmarkAblationReplacement(b *testing.B) {
	recs := dataStream(b, "crafty", 400_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lru, err := core.New(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.LRU})
		if err != nil {
			b.Fatal(err)
		}
		random, err := core.New(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.Random, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		mLRU := missRateOn(recs, lru)
		mRnd := missRateOn(recs, random)
		b.ReportMetric(100*mLRU, "lru-miss-%")
		b.ReportMetric(100*mRnd, "random-miss-%")
	}
}

// BenchmarkAblationVictimDepth sweeps the victim buffer size (§6.6: more
// than 16 entries "may not bring significant miss rate reduction").
func BenchmarkAblationVictimDepth(b *testing.B) {
	recs := dataStream(b, "perlbmk", 400_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{4, 8, 16, 32} {
			v, err := victim.New(16*1024, 32, entries)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*missRateOn(recs, v), "miss-%-"+itoa(entries))
		}
	}
}

// BenchmarkAblationHAC compares the B-Cache against the fully-
// programmable extreme (§6.7): the HAC matches or beats its miss rate but
// needs a 23-bit CAM per line instead of 6 bits.
func BenchmarkAblationHAC(b *testing.B) {
	recs := dataStream(b, "gcc", 400_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := core.New(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.LRU})
		if err != nil {
			b.Fatal(err)
		}
		h, err := altcache.NewHAC(16*1024, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*missRateOn(recs, bc), "bcache-miss-%")
		b.ReportMetric(100*missRateOn(recs, h), "hac-miss-%")
		b.ReportMetric(float64(h.CAMBits()), "hac-cam-bits")
	}
}

// BenchmarkAblationRelatedWork lines the B-Cache up against the §7
// alternatives: column-associative and skewed-associative caches.
func BenchmarkAblationRelatedWork(b *testing.B) {
	recs := dataStream(b, "twolf", 400_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, _ := core.New(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.LRU})
		col, err := altcache.NewColumn(16*1024, 32)
		if err != nil {
			b.Fatal(err)
		}
		sk, err := altcache.NewSkewed(16*1024, 32, rng.New(3))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*missRateOn(recs, bc), "bcache-miss-%")
		b.ReportMetric(100*missRateOn(recs, col), "column-miss-%")
		b.ReportMetric(100*missRateOn(recs, sk), "skewed-miss-%")
	}
}

// BenchmarkAccessPath measures the simulator's raw access throughput for
// the three main models (engineering metric, not a paper artifact).
func BenchmarkAccessPath(b *testing.B) {
	src := rng.New(5)
	addrs := make([]addr.Addr, 8192)
	for i := range addrs {
		addrs[i] = addr.Addr(src.Intn(1 << 22))
	}
	b.Run("direct-mapped", func(b *testing.B) {
		c, _ := cache.NewDirectMapped(16*1024, 32)
		for i := 0; i < b.N; i++ {
			c.Access(addrs[i&8191], false)
		}
	})
	b.Run("bcache", func(b *testing.B) {
		c, _ := core.New(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.LRU})
		for i := 0; i < b.N; i++ {
			c.Access(addrs[i&8191], false)
		}
	})
	b.Run("8way", func(b *testing.B) {
		c, _ := cache.NewSetAssoc(16*1024, 32, 8, cache.LRU, nil)
		for i := 0; i < b.N; i++ {
			c.Access(addrs[i&8191], false)
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
