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
// stream on the baseline and the B-Cache, counted from each access's
// Result.Frame.
func table7Grid(opts Opts) grid[stats.Balance] {
	specs := dmBCSpecs()
	return grid[stats.Balance]{id: "table7", opts: opts, profiles: workload.All(), configs: specNames(specs), specs: specs,
		run: func(_ *workload.Profile, c int) (engine[stats.Balance], error) {
			cc, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[stats.Balance]{}, err
			}
			frames := stats.NewFrames(cc.Geometry().Frames)
			return engine[stats.Balance]{feed: func(ch *chunk) {
				for _, m := range ch.data {
					frames.Count(cc.Access(m.Addr(), m.Write()))
				}
			}, results: func() (stats.Balance, error) { return stats.Analyze(frames) }}, nil
		}}
}

func renderTable7(_ Opts, g grid[stats.Balance], runs [][]stats.Balance) []*Table {
	t := &Table{
		ID:    "table7",
		Title: "Set balance: fhs/ch, fms/cm, las/tca per benchmark (dm = baseline, bc = B-Cache MF8/BAS8)",
		Note:  "a set is frequent when 2x over the per-set average; less-accessed when below half of it (§6.4)",
		Headers: []string{
			"benchmark", "cfg", "fhs", "ch", "fms", "cm", "las", "tca",
		},
	}
	rows := func(name string, pair []stats.Balance) {
		for c, cfg := range []string{"dm", "bc"} {
			cells := []string{name, cfg}
			for _, f := range balanceColumns(&pair[c]) {
				cells = append(cells, pct(*f))
			}
			t.AddRow(cells...)
			name = "" // only label the first row of the pair
		}
	}
	for pi, p := range g.profiles {
		rows(p.Name, runs[pi])
	}
	avg := table7Averages(runs)
	rows("Ave", avg[:])
	return []*Table{t}
}

// balanceColumns returns b's fields in Table 7's column order.
func balanceColumns(b *stats.Balance) []*float64 {
	return []*float64{&b.FreqHitSets, &b.HitsInFreqSets, &b.FreqMissSets,
		&b.MissesInFreqSets, &b.LessAccessedSets, &b.AccessesInLessSets}
}

// table7Averages returns the baseline's and the B-Cache's Balance, each
// field averaged over the benchmarks: Table 7's Ave rows.
func table7Averages(runs [][]stats.Balance) [2]stats.Balance {
	var avg [2]stats.Balance
	for c := range avg {
		sums := balanceColumns(&avg[c])
		for _, pair := range runs {
			for i, f := range balanceColumns(&pair[c]) {
				*sums[i] += *f
			}
		}
		for _, sum := range sums {
			*sum *= 1 / float64(len(runs))
		}
	}
	return avg
}
