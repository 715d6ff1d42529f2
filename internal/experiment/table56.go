package experiment

import (
	"fmt"

	"bcache/internal/cache"
	"bcache/internal/workload"
)

// Tables 5 and 6: the MF × BAS design space at fixed PD lengths.
// Table 5 reports the average D$ miss-rate reduction and Table 6 the PD
// hit rate during misses, for MF ∈ {2,4,8,16} at BAS = 4 and BAS = 8.
// Design A (BAS=8) vs design B (BAS=4) at equal PD length is the §6.3
// trade-off: B wins while the PD is short (lower PD hit rate), A wins
// once the PD reaches 6 bits.

func init() {
	designUnits := func(opts Opts) []unit { return designSweep(opts).units() }
	register(Experiment{
		ID:     "table5",
		Title:  "Average D$ miss rate reduction at varied MF, BAS (and PD length)",
		Units:  designUnits,
		Render: renderTable5,
	})
	register(Experiment{
		ID:     "table6",
		Title:  "PD hit rate during cache misses at varied MF, BAS (and PD length)",
		Units:  designUnits,
		Render: renderTable6,
	})
}

// designSpecs returns the MF × BAS sweep configurations of Tables 5/6.
func designSpecs() []Spec {
	var specs []Spec
	for _, bas := range []int{4, 8} {
		for _, mf := range []int{2, 4, 8, 16} {
			s := bcacheSpec(mf, bas, cache.LRU)
			s.Name = fmt.Sprintf("mf%d-bas%d", mf, bas)
			specs = append(specs, s)
		}
	}
	return specs
}

// designSweep is the one MF × BAS sweep behind Tables 5 and 6.
func designSweep(opts Opts) sweep {
	return sweep{opts, workload.All(), designSpecs(), dSide}
}

// designSpace reduces the MF × BAS sweep's results to, per BAS, the
// suite-average reduction and PD hit rate per MF.
func designSpace(opts Opts, res results) (reductions, pdHits map[int]map[int]float64, err error) {
	sw := designSweep(opts)
	rates, err := sw.rates(res)
	if err != nil {
		return nil, nil, err
	}
	reductions = map[int]map[int]float64{4: {}, 8: {}}
	pdHits = map[int]map[int]float64{4: {}, 8: {}}
	for _, bas := range []int{4, 8} {
		for _, mf := range []int{2, 4, 8, 16} {
			name := fmt.Sprintf("mf%d-bas%d", mf, bas)
			var pd float64
			for _, p := range sw.profiles {
				pd += rates[p.Name][name].pdHitDuringMiss
			}
			reductions[bas][mf] = averageReduction(sw, rates, name)
			pdHits[bas][mf] = pd / float64(len(sw.profiles))
		}
	}
	return reductions, pdHits, nil
}

func designTable(id, title string, vals map[int]map[int]float64) *Table {
	t := &Table{
		ID:    id,
		Title: title,
		Note:  "PD length = log2(MF)+log2(BAS) bits; design A is BAS=8, design B is BAS=4 (§6.3)",
		Headers: []string{
			"design", "MF=2", "MF=4", "MF=8", "MF=16",
		},
	}
	for _, bas := range []int{8, 4} {
		label := fmt.Sprintf("BAS=%d (A)", bas)
		if bas == 4 {
			label = "BAS=4 (B)"
		}
		cells := []string{label}
		for _, mf := range []int{2, 4, 8, 16} {
			cells = append(cells, pct(vals[bas][mf]))
		}
		t.AddRow(cells...)
	}
	pd := []string{"PD bits (A/B)"}
	for _, mf := range []int{2, 4, 8, 16} {
		pd = append(pd, fmt.Sprintf("%d/%d", log2i(mf)+3, log2i(mf)+2))
	}
	t.AddRow(pd...)
	return t
}

func renderTable5(opts Opts, res results) ([]*Table, error) {
	red, _, err := designSpace(opts, res)
	if err != nil {
		return nil, err
	}
	return []*Table{designTable("table5", "Miss rate reductions of the B-Cache vs MF, BAS, PD", red)}, nil
}

func renderTable6(opts Opts, res results) ([]*Table, error) {
	_, pd, err := designSpace(opts, res)
	if err != nil {
		return nil, err
	}
	return []*Table{designTable("table6", "PD hit rate during cache misses vs MF, BAS, PD", pd)}, nil
}

func log2i(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
