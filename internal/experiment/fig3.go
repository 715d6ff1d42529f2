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
	register(Experiment{
		ID:    "fig3",
		Title: "wupwise D$ miss rate and PD hit rate vs MF (BAS=8, 16kB)",
		Run:   runFig3,
	})
}

func runFig3(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	profiles, err := profilesByName("wupwise")
	if err != nil {
		return nil, err
	}
	var specs []Spec
	for mf := 2; mf <= 512; mf *= 2 {
		specs = append(specs, bcacheSpec(mf, 8, cache.LRU))
	}
	type run struct{ missRate, pdHitRate float64 }
	runs, err := profileUnits(opts, "fig3", profiles, specNames(specs),
		func(p *workload.Profile, c int) (run, error) {
			at, err := cachedData(opts, p)
			if err != nil {
				return run{}, err
			}
			cc, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return run{}, err
			}
			bc := cc.(*core.BCache)
			replayData(at.accs, bc)
			return run{bc.Stats().MissRate(), bc.PDStats().HitRateDuringMiss()}, nil
		})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3",
		Title:   "wupwise: D$ miss rate (left axis) and PD hit rate during misses (right axis) vs MF",
		Note:    "BAS=8, LRU; the sharp PD-hit-rate drop marks where MF exceeds the benchmark's tag-collision stride",
		Headers: []string{"MF", "miss-rate", "pd-hit-rate"},
	}
	for c, s := range specs {
		t.AddRow(s.Name, pct(runs[0][c].missRate), pct(runs[0][c].pdHitRate))
	}
	return []*Table{t}, nil
}
