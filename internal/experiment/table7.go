package experiment

import (
	"bcache/internal/stats"
	"bcache/internal/workload"
)

// Table 7: data-cache set-balance behaviour of the baseline (dm) vs the
// B-Cache (bc). Column names follow the paper: fhs = frequent-hit sets,
// ch = cache hits occurring in them, fms = frequent-miss sets, cm = cache
// misses occurring in them, las = less-accessed sets, tca = share of
// total accesses they carry.

func init() {
	register(gridExperiment("table7",
		"Data cache memory access behaviour (set balance), baseline vs B-Cache",
		table7Grid, renderTable7))
}

// table7Grid analyzes the per-set counters of every benchmark's data
// stream on the baseline and the B-Cache.
func table7Grid(opts Opts) grid[stats.Balance] {
	specs := dmBCSpecs()
	return grid[stats.Balance]{id: "table7", opts: opts, profiles: workload.All(), configs: specNames(specs),
		run: func(_ *workload.Profile, c int) (engine[stats.Balance], error) {
			cc, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[stats.Balance]{}, err
			}
			return engine[stats.Balance]{feed: func(ch *chunk) { replayData(ch.data, cc) },
				results: func() (stats.Balance, error) { return stats.Analyze(cc.Stats()) }}, nil
		}}
}

func renderTable7(_ Opts, _ grid[stats.Balance], runs [][]stats.Balance) []*Table {
	t := &Table{
		ID:    "table7",
		Title: "Set balance: fhs/ch, fms/cm, las/tca per benchmark (dm = baseline, bc = B-Cache MF8/BAS8)",
		Note:  "a set is frequent when 2x over the per-set average; less-accessed when below half of it (§6.4)",
		Headers: []string{
			"benchmark", "cfg", "fhs", "ch", "fms", "cm", "las", "tca",
		},
	}
	row := func(name, cfg string, b stats.Balance) {
		t.AddRow(name, cfg, pct(b.FreqHitSets), pct(b.HitsInFreqSets),
			pct(b.FreqMissSets), pct(b.MissesInFreqSets),
			pct(b.LessAccessedSets), pct(b.AccessesInLessSets))
	}
	all := workload.All()
	cfgs := []string{"dm", "bc"}
	sums := make([]stats.Balance, len(cfgs))
	for pi, p := range all {
		name := p.Name
		for c, cfg := range cfgs {
			addBalance(&sums[c], runs[pi][c])
			row(name, cfg, runs[pi][c])
			name = "" // only label the first row of the pair
		}
	}
	name := "Ave"
	for c, cfg := range cfgs {
		scaleBalance(&sums[c], 1/float64(len(all)))
		row(name, cfg, sums[c])
		name = ""
	}
	return []*Table{t}
}

func addBalance(dst *stats.Balance, s stats.Balance) {
	dst.FreqHitSets += s.FreqHitSets
	dst.HitsInFreqSets += s.HitsInFreqSets
	dst.FreqMissSets += s.FreqMissSets
	dst.MissesInFreqSets += s.MissesInFreqSets
	dst.LessAccessedSets += s.LessAccessedSets
	dst.AccessesInLessSets += s.AccessesInLessSets
}

func scaleBalance(dst *stats.Balance, f float64) {
	dst.FreqHitSets *= f
	dst.HitsInFreqSets *= f
	dst.FreqMissSets *= f
	dst.MissesInFreqSets *= f
	dst.LessAccessedSets *= f
	dst.AccessesInLessSets *= f
}
