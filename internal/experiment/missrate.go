package experiment

import (
	"fmt"

	"bcache/internal/energy"
	"bcache/internal/workload"
)

// Figures 4, 5 and 12: miss-rate reductions over the direct-mapped
// baseline.

func init() {
	register(Experiment{
		ID:     "fig4",
		Title:  "Data cache miss rate reductions, 16kB (2/4/8/32-way, victim16, B-Cache MF=2..16 BAS=8)",
		Units:  func(opts Opts) []unit { return fig4Sweep(opts).units() },
		Render: renderFig4,
	})
	register(Experiment{
		ID:     "fig5",
		Title:  "Instruction cache miss rate reductions, 16kB (reported benchmarks)",
		Units:  func(opts Opts) []unit { return fig5Sweep(opts).units() },
		Render: renderFig5,
	})
	register(Experiment{
		ID:     "fig12",
		Title:  "Miss rate reductions at 8kB and 32kB (12 configurations)",
		Units:  func(opts Opts) []unit { return sweepUnits(fig12Sweeps(opts)) },
		Render: renderFig12,
	})
}

// reportedICacheProfiles returns the benchmarks Figure 5 reports.
func reportedICacheProfiles() []*workload.Profile {
	var reported []*workload.Profile
	for _, p := range workload.All() {
		if workload.IsReportedICache(p.Name) {
			reported = append(reported, p)
		}
	}
	return reported
}

// fig4Sweep is Figure 4's D-side sweep over every benchmark.
func fig4Sweep(opts Opts) sweep {
	return sweep{opts, workload.All(), figureSpecs(), dSide}
}

// fig5Sweep is Figure 5's I-side sweep over the reported benchmarks.
func fig5Sweep(opts Opts) sweep {
	return sweep{opts, reportedICacheProfiles(), figureSpecs(), iSide}
}

// reductionTable renders one figure panel: rows = benchmarks (+Ave),
// columns = configurations, cells = % reduction vs. baseline, with the
// baseline miss rate as the second column for context. Profiles missing
// from res — units lost to an interrupt or a failure — are skipped, so
// partial runs still render the rows they completed.
func reductionTable(id, title, note string, profiles []*workload.Profile,
	specs []Spec, res map[string]map[string]missRun) *Table {

	t := &Table{ID: id, Title: title, Note: note}
	t.Headers = append([]string{"benchmark", "base-miss"}, specNames(specs)...)
	sums := make([]float64, len(specs))
	included := 0
	for _, p := range profiles {
		row, ok := res[p.Name]
		if !ok {
			continue
		}
		included++
		base := row["baseline"]
		cells := []string{p.Name, pct(base.missRate)}
		for i, s := range specs {
			r := reduction(base, row[s.Name])
			sums[i] += r
			cells = append(cells, pct(r))
		}
		t.AddRow(cells...)
	}
	if included > 0 {
		ave := []string{"Ave", ""}
		for _, s := range sums {
			ave = append(ave, pct(s/float64(included)))
		}
		t.AddRow(ave...)
	}
	if included < len(profiles) {
		t.Note = fmt.Sprintf("%s [partial: %d/%d benchmarks completed]", t.Note, included, len(profiles))
	}
	return t
}

func specNames(specs []Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// partialRates reduces a figure's sweep for a reductionTable, which
// marks missing profiles: it fails only when no profile completed.
func partialRates(sw sweep, res results) (missResults, error) {
	rates, err := sw.rates(res)
	if err != nil && len(rates) == 0 {
		return nil, err
	}
	return rates, nil
}

func renderFig4(opts Opts, res results) ([]*Table, error) {
	sw := fig4Sweep(opts)
	rates, err := partialRates(sw, res)
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("synthetic SPEC2K surrogates, %d instructions, LRU", opts.Instructions)
	var tables []*Table
	for _, suite := range []string{"CFP2K", "CINT2K"} { // paper order: FP panel first
		tables = append(tables, reductionTable(
			"fig4", fmt.Sprintf("D$ miss rate reductions over 16kB direct-mapped baseline (%s)", suite),
			note, workload.Suite(suite), sw.specs, rates))
	}
	return tables, nil
}

func renderFig5(opts Opts, res results) ([]*Table, error) {
	sw := fig5Sweep(opts)
	rates, err := partialRates(sw, res)
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("benchmarks with I$ miss rate ≥ 0.01%%; %d instructions", opts.Instructions)
	return []*Table{reductionTable("fig5", "I$ miss rate reductions over 16kB direct-mapped baseline",
		note, sw.profiles, sw.specs, rates)}, nil
}

// fig12Specs: the twelve configurations of Figure 12 — conventional
// 2/4/8-way, victim16, and the B-Cache at MF ∈ {2,4,8,16} × BAS ∈ {4,8}.
func fig12Specs() []Spec {
	specs := []Spec{setAssocSpec(2, energy.Way2), setAssocSpec(4, energy.Way4), setAssocSpec(8, energy.Way8), victimSpec(16)}
	for _, bas := range []int{4, 8} {
		for _, mf := range []int{2, 4, 8, 16} {
			s := bcacheSpec(mf, bas)
			s.Name = fmt.Sprintf("MF%d/BAS%d", mf, bas) // BAS=8 spelled out too
			specs = append(specs, s)
		}
	}
	return specs
}

// fig12Sweeps is Figure 12's size × side sweep, in paper panel order:
// 32kB then 8kB, each D$ (every benchmark) then I$ (the reported ones).
func fig12Sweeps(opts Opts) []sweep {
	specs := fig12Specs()
	var sws []sweep
	for _, size := range []int{32 * 1024, 8 * 1024} {
		o := opts
		o.L1Size = size
		sws = append(sws,
			sweep{o, workload.All(), specs, dSide},
			sweep{o, reportedICacheProfiles(), specs, iSide})
	}
	return sws
}

// renderFig12 plots suite averages only, one table per sweep.
func renderFig12(opts Opts, runs results) ([]*Table, error) {
	var tables []*Table
	for _, sw := range fig12Sweeps(opts) {
		rates, err := sw.rates(runs)
		if err != nil {
			return nil, err
		}
		size := sw.opts.L1Size
		tag := "D$"
		if sw.side == iSide {
			tag = "I$"
		}
		t := &Table{
			ID:    "fig12",
			Title: fmt.Sprintf("Average miss rate reductions, %dkB %s", size/1024, tag),
			Note:  "averaged over the benchmarks Figures 4/5 report for this side",
		}
		t.Headers = append([]string{"group"}, specNames(sw.specs)...)
		cells := []string{fmt.Sprintf("%dK %s", size/1024, tag)}
		for _, sp := range sw.specs {
			cells = append(cells, pct(averageReduction(sw, rates, sp.Name)))
		}
		t.AddRow(cells...)
		tables = append(tables, t)
	}
	return tables, nil
}
