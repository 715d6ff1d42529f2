package experiment

// Figure 3: the benchmark wupwise's data-cache miss rate and PD hit rate
// during misses as MF sweeps from 2 to 512 (BAS = 8, 16 kB). The paper's
// point: wupwise's conflicting blocks sit at a power-of-two stride whose
// low tag bits coincide, so the PD keeps hitting during misses — and the
// miss rate only falls once MF grows past the collision (between 32 and
// 64), tracking the PD hit rate downward.

func init() {
	register(Experiment{
		ID:     "fig3",
		Title:  "wupwise D$ miss rate and PD hit rate vs MF (BAS=8, 16kB)",
		Units:  func(opts Opts) []unit { return fig3Sweep(opts, fig3MFs...).units() },
		Render: renderFig3,
	})
}

// fig3MFs are Figure 3's MFs.
var fig3MFs = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}

// fig3Sweep is wupwise's D-side sweep of the B-Cache at each of mfs,
// BAS = 8, on the canonical trace alone: the figure plots one run per
// MF, whatever -seeds says. Its MF ≤ 16 keys are Figure 4's (seed 0),
// so a campaign running both simulates them once.
func fig3Sweep(opts Opts, mfs ...int) sweep {
	opts.Seeds = 1
	specs := make([]Spec, len(mfs))
	for i, mf := range mfs {
		specs[i] = bcacheSpec(mf, 8)
	}
	return sweep{opts, mustProfiles("wupwise"), specs, dSide}
}

func renderFig3(opts Opts, res results) ([]*Table, error) {
	sw := fig3Sweep(opts, fig3MFs...)
	rates, err := sw.rates(res)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3",
		Title:   "wupwise: D$ miss rate (left axis) and PD hit rate during misses (right axis) vs MF",
		Note:    "BAS=8, LRU; the sharp PD-hit-rate drop marks where MF exceeds the benchmark's tag-collision stride",
		Headers: []string{"MF", "miss-rate", "pd-hit-rate"},
	}
	for _, s := range sw.specs {
		r := rates["wupwise"][s.Name]
		t.AddRow(s.Name, pct(r.missRate), pct(r.pdHitDuringMiss))
	}
	return []*Table{t}, nil
}
