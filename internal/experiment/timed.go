package experiment

import (
	"fmt"

	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/cpu"
	"bcache/internal/energy"
	"bcache/internal/hier"
	"bcache/internal/victim"
	"bcache/internal/workload"
)

// Figures 8 and 9: whole-processor IPC and memory energy. Each
// configuration replaces both level-one caches; the rest of the platform
// is Table 4's.

func init() {
	register(gridExperiment("fig8",
		"IPC improvement of 2/4/8-way, B-Cache and victim16 over the baseline",
		timedGrid, renderFig8))
	register(gridExperiment("fig9",
		"Total memory energy normalized to the baseline",
		timedGrid, renderFig9))
	register(Experiment{
		ID:     "table4",
		Title:  "Baseline and B-Cache processor configuration",
		Render: renderTable4,
	})
}

// timedSpecs: the five configurations Figures 8 and 9 compare against the
// baseline.
func timedSpecs() []Spec {
	return []Spec{
		setAssocSpec(2, energy.Way2),
		setAssocSpec(4, energy.Way4),
		setAssocSpec(8, energy.Way8),
		timedBCacheSpec(),
		victimSpec(16),
	}
}

// timedBCacheSpec is the B-Cache column of Figures 8 and 9: MF=8,
// BAS=8, LRU.
func timedBCacheSpec() Spec {
	return Spec{Name: "B-Cache", Kind: energy.BCache, New: func(size, line int) (cache.Cache, error) {
		return core.New(core.Config{SizeBytes: size, LineBytes: line, MF: 8, BAS: 8, Policy: cache.LRU})
	}}
}

// timedRun holds one (benchmark, config) timed simulation's raw
// counters.
type timedRun struct {
	CPU    cpu.Result    `json:"cpu"`
	Counts energy.Counts `json:"counts"`
}

// timedEngine runs one benchmark on one L1 configuration: the CPU
// model over both L1s of spec behind the Table 4 hierarchy.
func timedEngine(spec Spec, opts Opts) (engine[timedRun], error) {
	ic, err := spec.New(opts.L1Size, opts.LineBytes)
	if err != nil {
		return engine[timedRun]{}, err
	}
	dc, err := spec.New(opts.L1Size, opts.LineBytes)
	if err != nil {
		return engine[timedRun]{}, err
	}
	h, err := hier.New(ic, dc, hier.Defaults())
	if err != nil {
		return engine[timedRun]{}, err
	}
	return cpuEngine(h, cpu.Defaults(), func(res cpu.Result) (timedRun, error) {
		c := energy.Counts{
			L1Accesses: ic.Stats().Accesses + dc.Stats().Accesses,
			L1Misses:   ic.Stats().Misses + dc.Stats().Misses,
			L2Accesses: h.L2.Stats().Accesses,
			L2Misses:   h.L2.Stats().Misses,
			Cycles:     res.Cycles,
		}
		if bc, ok := ic.(*core.BCache); ok {
			c.PDPredictedMisses += bc.PDStats().MissPDMiss
		}
		if bc, ok := dc.(*core.BCache); ok {
			c.PDPredictedMisses += bc.PDStats().MissPDMiss
		}
		if vc, ok := ic.(*victim.Cache); ok {
			c.VictimProbes += vc.Stats().Misses + vc.BufferHits
		}
		if vc, ok := dc.(*victim.Cache); ok {
			c.VictimProbes += vc.Stats().Misses + vc.BufferHits
		}
		return timedRun{CPU: res, Counts: c}, nil
	})
}

// cpuEngine runs the CPU model of cfg on h over the record stream and
// hands its result to done.
func cpuEngine[R any](h *hier.Hierarchy, cfg cpu.Config, done func(cpu.Result) (R, error)) (engine[R], error) {
	c, err := cpu.New(h, cfg)
	if err != nil {
		return engine[R]{}, err
	}
	return engine[R]{feed: func(ch *chunk) { c.Step(ch.recs) },
		results: func() (R, error) { return done(c.Result()) }}, nil
}

// timedGrid is the one timed sweep behind Figures 8 and 9: every
// profile on the baseline and each timedSpecs configuration. Its keys
// carry the "timed" family instead of an experiment ID, so fig9 asks
// for exactly the results fig8 committed and simulates nothing.
func timedGrid(opts Opts) grid[timedRun] {
	return timedPart(opts, workload.All(), append([]Spec{baselineSpec()}, timedSpecs()...))
}

// timedPart is the part of the timed sweep over profiles and specs
// (baseline or timedSpecs configurations): its units commit timedGrid's
// keys, so an experiment that needs some timed runs (xprefetch,
// xwindow) shares them with fig8.
func timedPart(opts Opts, profiles []*workload.Profile, specs []Spec) grid[timedRun] {
	return grid[timedRun]{id: "timed", opts: opts, profiles: profiles, configs: specNames(specs),
		run:   func(_ *workload.Profile, c int) (engine[timedRun], error) { return timedEngine(specs[c], opts) },
		reads: recordStream}
}

// timedDMBC is the timed sweep's part over profiles on the baseline and
// the B-Cache: the runs of a Table 4 core behind direct-mapped or
// B-Cache (MF8/BAS8) L1s with no stream buffer.
func timedDMBC(opts Opts, profiles []*workload.Profile) grid[timedRun] {
	return timedPart(opts, profiles, []Spec{baselineSpec(), timedBCacheSpec()})
}

func renderFig8(opts Opts, _ grid[timedRun], runs [][]timedRun) []*Table {
	specs := timedSpecs()
	t := &Table{
		ID:      "fig8",
		Title:   "% IPC improvement over the 16kB direct-mapped baseline",
		Note:    fmt.Sprintf("Table 4 processor, %d instructions per run", opts.Instructions),
		Headers: append([]string{"benchmark", "base-IPC"}, specNames(specs)...),
	}
	// Config 0 is the baseline; config i+1 is specs[i].
	sums := make([]float64, len(specs))
	all := workload.All()
	for pi, p := range all {
		base := runs[pi][0].CPU.IPC()
		cells := []string{p.Name, f3(base)}
		for i := range specs {
			imp := runs[pi][i+1].CPU.IPC()/base - 1
			sums[i] += imp
			cells = append(cells, pct(imp))
		}
		t.AddRow(cells...)
	}
	ave := []string{"Ave", ""}
	for _, s := range sums {
		ave = append(ave, pct(s/float64(len(all))))
	}
	t.AddRow(ave...)
	return []*Table{t}
}

func renderFig9(_ Opts, _ grid[timedRun], runs [][]timedRun) []*Table {
	specs := timedSpecs()
	params := energy.Defaults()
	t := &Table{
		ID:      "fig9",
		Title:   "Total memory-related energy normalized to the baseline (lower is better)",
		Note:    "Figure 10 equations; k_static=0.5, off-chip=100x L1 access",
		Headers: append([]string{"benchmark"}, specNames(specs)...),
	}
	sums := make([]float64, len(specs))
	all := workload.All()
	for pi, p := range all {
		base := runs[pi][0].Counts
		spc := params.StaticPerCycle(params.Dynamic(energy.DirectMapped, base), base.Cycles)
		baseTotal := params.Total(energy.DirectMapped, base, spc).Total()
		cells := []string{p.Name}
		for i, s := range specs {
			norm := params.Total(s.Kind, runs[pi][i+1].Counts, spc).Total() / baseTotal
			sums[i] += norm
			cells = append(cells, f3(norm))
		}
		t.AddRow(cells...)
	}
	ave := []string{"Ave"}
	for _, s := range sums {
		ave = append(ave, f3(s/float64(len(all))))
	}
	t.AddRow(ave...)
	return []*Table{t}
}

func renderTable4(Opts, results) ([]*Table, error) {
	c := cpu.Defaults()
	h := hier.Defaults()
	t := &Table{
		ID:      "table4",
		Title:   "Baseline and B-Cache processor configuration",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("Fetch/Issue/Retire width", fmt.Sprintf("%d instructions/cycle", c.IssueWidth))
	t.AddRow("Instruction window", fmt.Sprintf("%d instructions", c.Window))
	t.AddRow("Data cache ports", fmt.Sprintf("%d", c.MemPorts))
	t.AddRow("L1 caches", "16kB, 32B line, direct-mapped (baseline) / B-Cache MF=8 BAS=8")
	t.AddRow("L2 unified cache", fmt.Sprintf("%dkB, %dB line, %d-way, %d-cycle hit",
		h.L2Size/1024, h.L2Line, h.L2Ways, h.L2Latency))
	t.AddRow("Main memory", fmt.Sprintf("infinite size, %d-cycle access", h.MemLatency))
	return []*Table{t}, nil
}
