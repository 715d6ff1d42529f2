package experiment

import (
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/workload"
)

// Figure 3: the benchmark wupwise's data-cache miss rate and PD hit rate
// during misses as MF sweeps from 2 to 512 (BAS = 8, 16 kB). The paper's
// point: wupwise's conflicting blocks sit at a power-of-two stride whose
// low tag bits coincide, so the PD keeps hitting during misses — and the
// miss rate only falls once MF grows past the collision (between 32 and
// 64), tracking the PD hit rate downward.

func init() {
	register(gridExperiment("fig3",
		"wupwise D$ miss rate and PD hit rate vs MF (BAS=8, 16kB)",
		fig3Grid, renderFig3))
}

// fig3Grid replays wupwise's data stream on the B-Cache at MF 2..512,
// BAS = 8, and keeps the raw miss and PD counters.
func fig3Grid(opts Opts) grid[UnitResult] {
	var mfs []int
	for mf := 2; mf <= 512; mf *= 2 {
		mfs = append(mfs, mf)
	}
	return fig3GridMF(opts, mfs)
}

// fig3GridMF is the part of Figure 3's grid at the given MFs: its units
// commit the same keys as fig3Grid's.
func fig3GridMF(opts Opts, mfs []int) grid[UnitResult] {
	var specs []Spec
	for _, mf := range mfs {
		specs = append(specs, bcacheSpec(mf, 8))
	}
	return grid[UnitResult]{id: "fig3", opts: opts, profiles: mustProfiles("wupwise"), configs: specNames(specs),
		run: func(_ *workload.Profile, c int) (engine[UnitResult], error) {
			cc, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[UnitResult]{}, err
			}
			return engine[UnitResult]{feed: func(ch *chunk) { cache.Replay(cc, ch.data, nil) },
				results: func() (UnitResult, error) { return cacheCounters(cc), nil }}, nil
		}}
}

func renderFig3(_ Opts, g grid[UnitResult], runs [][]UnitResult) []*Table {
	t := &Table{
		ID:      "fig3",
		Title:   "wupwise: D$ miss rate (left axis) and PD hit rate during misses (right axis) vs MF",
		Note:    "BAS=8, LRU; the sharp PD-hit-rate drop marks where MF exceeds the benchmark's tag-collision stride",
		Headers: []string{"MF", "miss-rate", "pd-hit-rate"},
	}
	for c, name := range g.configs {
		r := runs[0][c]
		pd := core.PDStats{MissPDHit: r.PDHit, MissPDMiss: r.PDMiss}
		t.AddRow(name, pct(r.missRate()), pct(pd.HitRateDuringMiss()))
	}
	return []*Table{t}
}
