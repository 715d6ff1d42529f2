package experiment

import (
	"fmt"

	"bcache/internal/altcache"
	"bcache/internal/cache"
	"bcache/internal/cpu"
	"bcache/internal/energy"
	"bcache/internal/hier"
	"bcache/internal/rng"
	"bcache/internal/stats"
	"bcache/internal/threec"
	"bcache/internal/trace"
	"bcache/internal/vm"
	"bcache/internal/workload"
)

// Extension experiments beyond the paper's artifacts: the §7 related-work
// designs measured head-to-head (xrelated), the §6.8 virtual-addressing
// demonstration (xvipt), the §7.1 OS page-recoloring alternative
// (xrecolor), and the §6.4 drowsy-compatibility analysis (xdrowsy).

func init() {
	register(gridExperiment("xrelated",
		"Related-work comparison: miss-rate reduction and hit latency per design (§7)",
		xRelatedGrid, renderXRelated))
	register(gridExperiment("xvipt",
		"Virtually-indexed physically-tagged B-Cache with and without page coloring (§6.8)",
		xVIPTGrid, renderXVIPT))
	register(gridExperiment("xrecolor",
		"OS page recoloring (CML) vs the B-Cache on conflict-bound benchmarks (§7.1)",
		xRecolorGrid, renderXRecolor))
	register(gridExperiment("xdrowsy",
		"Drowsy-eligible frame fraction: baseline vs B-Cache (§6.4)",
		xDrowsyGrid, renderXDrowsy))
}

// relatedSpecs returns every alternative design under comparison.
func relatedSpecs() []Spec {
	return []Spec{
		setAssocSpec(2, 0),
		setAssocSpec(4, 0),
		setAssocSpec(8, 0),
		{Name: "column", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewColumn(size, line)
		}},
		{Name: "skewed2", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewSkewed(size, line, rng.New(1))
		}},
		{Name: "psa", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewPSA(size, line, 10)
		}},
		{Name: "agac", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewAGAC(size, line, 32, 4096)
		}},
		{Name: "pam4", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewPAM(size, line, 4, 5)
		}},
		victimSpec(16),
		hacSpec(),
		bcacheSpec(8, 8, cache.LRU),
	}
}

// relatedRun is one design's raw counters on one benchmark.
type relatedRun struct {
	Misses uint64 `json:"misses"`
	Hits   uint64 `json:"hits"`
	// Extra sums the extra hit latency, in cycles, over all hits.
	Extra uint64 `json:"extra"`
}

// xRelatedGrid replays every benchmark's data stream on the baseline
// (config 0) and each relatedSpecs design (config j+1 is specs[j]).
func xRelatedGrid(opts Opts) grid[relatedRun] {
	specs := append([]Spec{baselineSpec()}, relatedSpecs()...)
	return grid[relatedRun]{id: "xrelated", opts: opts, profiles: workload.All(), configs: specNames(specs),
		run: func(tg *traceGroup, c int) (relatedRun, error) {
			at, err := tg.data()
			if err != nil {
				return relatedRun{}, err
			}
			cc, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return relatedRun{}, err
			}
			var r relatedRun
			for _, m := range at.accs {
				res := cc.Access(m.Addr(), m.Write())
				if res.Hit {
					r.Hits++
					r.Extra += uint64(res.ExtraLatency)
				}
			}
			r.Misses = cc.Stats().Misses
			return r, nil
		}}
}

func renderXRelated(_ Opts, _ grid[relatedRun], runs [][]relatedRun) []*Table {
	t := &Table{
		ID:    "xrelated",
		Title: "Related-work designs on the full suite (D$, 16kB): reduction vs baseline and mean hit latency",
		Note:  "hit latency in cycles assuming 1-cycle primary probes; the B-Cache's defining property is 1.000",
		Headers: []string{
			"design", "miss-reduction", "mean-hit-latency",
		},
	}
	var baseMisses uint64
	for _, r := range runs {
		baseMisses += r[0].Misses
	}
	for j, s := range relatedSpecs() {
		var sum relatedRun
		for _, r := range runs {
			sum.Misses += r[j+1].Misses
			sum.Hits += r[j+1].Hits
			sum.Extra += r[j+1].Extra
		}
		red := 0.0
		if baseMisses > 0 {
			red = 1 - float64(sum.Misses)/float64(baseMisses)
		}
		lat := 1.0
		if sum.Hits > 0 {
			lat = 1 + float64(sum.Extra)/float64(sum.Hits)
		}
		t.AddRow(s.Name, pct(red), fmt.Sprintf("%.3f", lat))
	}
	return []*Table{t}
}

// dmBCSpecs returns the pair most extensions compare: the direct-mapped
// baseline and the B-Cache at MF=8, BAS=8.
func dmBCSpecs() []Spec {
	return []Spec{baselineSpec(), bcacheSpec(8, 8, cache.LRU)}
}

// xVIPTGrid runs one unit per benchmark: the colored address space the
// PIPT run populates must be the one the VIPT-colored run translates
// through, so both see the same frames. A unit's result holds the PIPT,
// VIPT-colored and VIPT-arbitrary B-Cache counters, then the colored
// run's TLB counters.
func xVIPTGrid(opts Opts) grid[[]UnitResult] {
	const pageBytes = 8192
	bcSpec := bcacheSpec(8, 8, cache.LRU)
	return grid[[]UnitResult]{id: "xvipt", opts: opts, profiles: mustProfiles("equake", "crafty", "gcc", "mcf"),
		configs: []string{bcSpec.Name},
		run: func(tg *traceGroup, _ int) ([]UnitResult, error) {
			at, err := tg.data()
			if err != nil {
				return nil, err
			}
			colored, err := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, ColorBits: 4, Policy: vm.Colored, Seed: 1})
			if err != nil {
				return nil, err
			}
			arbitrary, err := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, Policy: vm.Arbitrary, Seed: 1})
			if err != nil {
				return nil, err
			}
			pipt, err := bcSpec.New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return nil, err
			}
			for _, m := range at.accs {
				pipt.Access(colored.Translate(m.Addr()), m.Write())
			}
			r := []UnitResult{statsResult(pipt)}
			var tlbRun UnitResult
			for i, as := range []*vm.AddressSpace{colored, arbitrary} {
				bc, err := bcSpec.New(opts.L1Size, opts.LineBytes)
				if err != nil {
					return nil, err
				}
				tlb, err := vm.NewTLB(64)
				if err != nil {
					return nil, err
				}
				vipt, err := vm.NewVIPT(bc, as, tlb, 17)
				if err != nil {
					return nil, err
				}
				for _, m := range at.accs {
					vipt.Access(m.Addr(), m.Write())
				}
				r = append(r, statsResult(bc))
				if i == 0 {
					tlbRun = UnitResult{Misses: tlb.Misses, Accesses: tlb.Hits + tlb.Misses}
				}
			}
			return append(r, tlbRun), nil
		}}
}

// statsResult captures c's miss and access counters.
func statsResult(c cache.Cache) UnitResult {
	return UnitResult{Misses: c.Stats().Misses, Accesses: c.Stats().Accesses}
}

func renderXVIPT(_ Opts, g grid[[]UnitResult], runs [][][]UnitResult) []*Table {
	t := &Table{
		ID:    "xvipt",
		Title: "B-Cache under virtual addressing (8kB pages, 64-entry TLB)",
		Note:  "coloring preserves the PD's borrowed tag bits; the physical column is the PIPT reference",
		Headers: []string{
			"benchmark", "physical", "vipt-colored", "vipt-arbitrary", "tlb-miss",
		},
	}
	for pi, p := range g.profiles {
		r := runs[pi][0]
		t.AddRow(p.Name, pct(r[0].missRate()), pct(r[1].missRate()), pct(r[2].missRate()), pct(r[3].missRate()))
	}
	return []*Table{t}
}

// recolorRun is one benchmark's counters under one xrecolor config.
type recolorRun struct {
	// Caches holds per-spec counters ("phys") or the DM's ("recolor").
	Caches []UnitResult `json:"caches"`
	Remaps uint64       `json:"remaps,omitempty"`
}

// xRecolorGrid translates both configs through an identically-seeded
// arbitrary allocator, so initial placements match. Config 0 ("phys")
// runs the plain DM, 2-way and B-Cache on one shared address space;
// config 1 ("recolor") runs DM plus the recoloring policy on its own.
func xRecolorGrid(opts Opts) grid[recolorRun] {
	const pageBytes = 4096
	specs := []Spec{baselineSpec(), setAssocSpec(2, 0), bcacheSpec(8, 8, cache.LRU)}
	return grid[recolorRun]{id: "xrecolor", opts: opts, profiles: mustProfiles("equake", "crafty", "twolf", "gcc"),
		configs: []string{"phys", "recolor"},
		run: func(tg *traceGroup, c int) (recolorRun, error) {
			at, err := tg.data()
			if err != nil {
				return recolorRun{}, err
			}
			as, err := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, Policy: vm.Arbitrary, Seed: 2})
			if err != nil {
				return recolorRun{}, err
			}
			if c == 0 {
				caches := make([]cache.Cache, len(specs))
				for i, s := range specs {
					if caches[i], err = s.New(opts.L1Size, opts.LineBytes); err != nil {
						return recolorRun{}, err
					}
				}
				for _, m := range at.accs {
					pa := as.Translate(m.Addr())
					for _, cc := range caches {
						cc.Access(pa, m.Write())
					}
				}
				var r recolorRun
				for _, cc := range caches {
					r.Caches = append(r.Caches, statsResult(cc))
				}
				return r, nil
			}
			rc, err := vm.NewRecolorer(as, opts.L1Size, 24)
			if err != nil {
				return recolorRun{}, err
			}
			dm, err := specs[0].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return recolorRun{}, err
			}
			for _, m := range at.accs {
				pa := as.Translate(m.Addr())
				rc.Note(m.Addr(), pa)
				if !dm.Access(pa, m.Write()).Hit {
					rc.OnMiss(pa)
				}
			}
			return recolorRun{Caches: []UnitResult{statsResult(dm)}, Remaps: rc.Remaps}, nil
		}}
}

func renderXRecolor(_ Opts, g grid[recolorRun], runs [][]recolorRun) []*Table {
	t := &Table{
		ID:    "xrecolor",
		Title: "OS page recoloring (CML buffer) vs hardware approaches (D$ miss rate)",
		Note:  "recoloring approaches 2-way behaviour (§7.1); the B-Cache reaches 4-way+ in hardware",
		Headers: []string{
			"benchmark", "dm", "dm+recolor", "remaps", "2way", "bcache",
		},
	}
	for pi, p := range g.profiles {
		phys, rc := runs[pi][0], runs[pi][1]
		t.AddRow(p.Name,
			pct(phys.Caches[0].missRate()),
			pct(rc.Caches[0].missRate()),
			fmt.Sprintf("%d", rc.Remaps),
			pct(phys.Caches[1].missRate()),
			pct(phys.Caches[2].missRate()))
	}
	return []*Table{t}
}

// xDrowsyGrid measures each benchmark's drowsy-eligible frame fraction
// (window 2048 accesses) on the baseline and the B-Cache.
func xDrowsyGrid(opts Opts) grid[float64] {
	const window = 2048
	specs := dmBCSpecs()
	return grid[float64]{id: "xdrowsy", opts: opts, profiles: mustProfiles("equake", "crafty", "art", "mcf", "gcc"),
		configs: specNames(specs),
		run: func(tg *traceGroup, c int) (float64, error) {
			at, err := tg.data()
			if err != nil {
				return 0, err
			}
			cc, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return 0, err
			}
			d, err := stats.NewDrowsyTracker(cc.Geometry().Frames, window)
			if err != nil {
				return 0, err
			}
			for _, m := range at.accs {
				d.Touch(cc.Access(m.Addr(), m.Write()).Frame)
			}
			return d.DrowsyFraction(), nil
		}}
}

func renderXDrowsy(_ Opts, g grid[float64], runs [][]float64) []*Table {
	t := &Table{
		ID:    "xdrowsy",
		Title: "Drowsy-eligible frame fraction (window 2048 accesses): baseline vs B-Cache",
		Note:  "§6.4: the B-Cache balances accesses yet leaves cold frames for drowsy/decay techniques",
		Headers: []string{
			"benchmark", "dm-drowsy", "bc-drowsy", "dm-static-factor", "bc-static-factor",
		},
	}
	for pi, p := range g.profiles {
		fDM, fBC := runs[pi][0], runs[pi][1]
		t.AddRow(p.Name, pct(fDM), pct(fBC),
			f3(energy.DrowsyStaticFactor(fDM)), f3(energy.DrowsyStaticFactor(fBC)))
	}
	return []*Table{t}
}

func init() {
	register(gridExperiment("x3c",
		"3C miss decomposition (D$): the B-Cache removes conflict misses only",
		x3CGrid, renderX3C))
}

// x3CGrid classifies every data-stream miss of six benchmarks on the
// baseline and the B-Cache.
func x3CGrid(opts Opts) grid[threec.Counts] {
	specs := dmBCSpecs()
	return grid[threec.Counts]{id: "x3c", opts: opts,
		profiles: mustProfiles("equake", "crafty", "gcc", "art", "mcf", "wupwise"), configs: specNames(specs),
		run: func(tg *traceGroup, c int) (threec.Counts, error) {
			at, err := tg.data()
			if err != nil {
				return threec.Counts{}, err
			}
			under, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return threec.Counts{}, err
			}
			cl, err := threec.New(under)
			if err != nil {
				return threec.Counts{}, err
			}
			for _, m := range at.accs {
				cl.Access(m.Addr(), m.Write())
			}
			return cl.Counts(), nil
		}}
}

func renderX3C(_ Opts, g grid[threec.Counts], runs [][]threec.Counts) []*Table {
	t := &Table{
		ID:    "x3c",
		Title: "Compulsory/capacity/conflict decomposition of D$ misses (% of accesses)",
		Note:  "the B-Cache (MF8/BAS8) attacks the conflict column; compulsory and capacity are indexing-independent",
		Headers: []string{
			"benchmark", "cfg", "compulsory", "capacity", "conflict", "total-miss",
		},
	}
	for pi, p := range g.profiles {
		for c, cfg := range []string{"dm", "bc"} {
			counts := runs[pi][c]
			name := p.Name
			if c > 0 {
				name = "" // only label the first row of the pair
			}
			n := float64(counts.Accesses())
			t.AddRow(name, cfg,
				pct(float64(counts.Compulsory)/n),
				pct(float64(counts.Capacity)/n),
				pct(float64(counts.Conflict)/n),
				pct(float64(counts.Misses())/n))
		}
	}
	return []*Table{t}
}

func init() {
	register(gridExperiment("xprefetch",
		"Stream-buffer prefetching is orthogonal to B-Cache balancing (IPC)",
		xPrefetchGrid, renderXPrefetch))
}

// prefetchRun is one benchmark's timed run under one xprefetch config.
type prefetchRun struct {
	CPU        cpu.Result `json:"cpu"`
	StreamHits uint64     `json:"streamHits,omitempty"`
	Prefetches uint64     `json:"prefetches,omitempty"`
}

// xPrefetchGrid contrasts the two miss-reduction mechanisms of the era:
// a stream buffer attacks sequential (capacity/compulsory) misses, the
// B-Cache attacks conflict misses. On streaming benchmarks the buffer
// wins; on conflict-bound ones the B-Cache wins; together they compose.
// In config c, bit 1 selects the B-Cache L1s and bit 0 the stream
// buffer.
func xPrefetchGrid(opts Opts) grid[prefetchRun] {
	return grid[prefetchRun]{id: "xprefetch", opts: opts,
		profiles: mustProfiles("art", "swim", "equake", "crafty", "mcf"),
		configs:  []string{"dm", "dm+sb", "bc", "bc+sb"},
		run: func(tg *traceGroup, c int) (prefetchRun, error) {
			cfg := hier.Defaults()
			if c&1 != 0 {
				cfg.StreamBuffer = 8
			}
			h, err := newL1Hierarchy(opts, c&2 != 0, cfg)
			if err != nil {
				return prefetchRun{}, err
			}
			res, err := runRecords(tg, h, cpu.Defaults())
			if err != nil {
				return prefetchRun{}, err
			}
			return prefetchRun{CPU: res, StreamHits: h.StreamHits, Prefetches: h.Prefetches}, nil
		},
		records: true}
}

func renderXPrefetch(_ Opts, g grid[prefetchRun], runs [][]prefetchRun) []*Table {
	t := &Table{
		ID:    "xprefetch",
		Title: "IPC with and without an 8-entry data stream buffer",
		Note:  "dm = direct-mapped baseline, bc = B-Cache MF8/BAS8; +sb adds the stream buffer",
		Headers: []string{
			"benchmark", "dm", "dm+sb", "bc", "bc+sb", "sb-hit-rate",
		},
	}
	for pi, p := range g.profiles {
		r := runs[pi]
		sbRate := 0.0
		if r[1].Prefetches > 0 {
			sbRate = float64(r[1].StreamHits) / float64(r[1].Prefetches)
		}
		t.AddRow(p.Name, f3(r[0].CPU.IPC()), f3(r[1].CPU.IPC()), f3(r[2].CPU.IPC()), f3(r[3].CPU.IPC()), pct(sbRate))
	}
	return []*Table{t}
}

// mustProfiles resolves benchmark names in order. The names are
// constants of the experiment declaring them, so an unknown one is a
// programming error.
func mustProfiles(names ...string) []*workload.Profile {
	out := make([]*workload.Profile, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}

// newL1Hierarchy builds cfg's hierarchy behind a pair of level-one
// caches: direct-mapped, or the B-Cache at MF=8, BAS=8 when useBC.
func newL1Hierarchy(opts Opts, useBC bool, cfg hier.Config) (*hier.Hierarchy, error) {
	specs := dmBCSpecs()
	spec := specs[0]
	if useBC {
		spec = specs[1]
	}
	ic, err := spec.New(opts.L1Size, opts.LineBytes)
	if err != nil {
		return nil, err
	}
	dc, err := spec.New(opts.L1Size, opts.LineBytes)
	if err != nil {
		return nil, err
	}
	return hier.New(ic, dc, cfg)
}

// runRecords runs tg's record trace through the CPU model on h. Call
// it from a unit of a grid marked records, so that tg extracts its
// streams from the record trace too.
func runRecords(tg *traceGroup, h *hier.Hierarchy, cfg cpu.Config) (cpu.Result, error) {
	rt, err := tg.records()
	if err != nil {
		return cpu.Result{}, err
	}
	return cpu.Run(trace.NewSliceStream(rt.recs), h, cfg, tg.key.instructions)
}

func init() {
	register(gridExperiment("xl2",
		"The B-Cache mechanism applied at the L2 (misses per 1k instructions)",
		xL2Grid, renderXL2))
}

// xL2Grid swaps the unified 256kB L2 between direct-mapped, B-Cache
// (MF=8, BAS=8) and the paper's 4-way baseline: the balancing idea is
// not level-one specific.
func xL2Grid(opts Opts) grid[UnitResult] {
	cfg := hier.Defaults()
	l2s := []Spec{baselineSpec(), bcacheSpec(8, 8, cache.LRU), setAssocSpec(cfg.L2Ways, 0)}
	return grid[UnitResult]{id: "xl2", opts: opts, profiles: mustProfiles("mcf", "gcc", "equake", "ammp"),
		configs: []string{"dm-l2", "bcache-l2", "4way-l2"},
		run: func(tg *traceGroup, c int) (UnitResult, error) {
			ic, err := cache.NewDirectMapped(opts.L1Size, opts.LineBytes)
			if err != nil {
				return UnitResult{}, err
			}
			dc, err := cache.NewDirectMapped(opts.L1Size, opts.LineBytes)
			if err != nil {
				return UnitResult{}, err
			}
			l2, err := l2s[c].New(cfg.L2Size, cfg.L2Line)
			if err != nil {
				return UnitResult{}, err
			}
			h, err := hier.NewWithL2(ic, dc, l2, cfg)
			if err != nil {
				return UnitResult{}, err
			}
			if _, err := runRecords(tg, h, cpu.Defaults()); err != nil {
				return UnitResult{}, err
			}
			return statsResult(l2), nil
		},
		records: true}
}

func renderXL2(_ Opts, g grid[UnitResult], runs [][]UnitResult) []*Table {
	t := &Table{
		ID:      "xl2",
		Title:   "L2 organization sweep (16kB DM L1s in front): L2 miss rate",
		Note:    "an L2 B-Cache recovers most of the associativity a 4-way L2 provides, at direct-mapped access time",
		Headers: append([]string{"benchmark"}, g.configs...),
	}
	for pi, p := range g.profiles {
		r := runs[pi]
		t.AddRow(p.Name, pct(r[0].missRate()), pct(r[1].missRate()), pct(r[2].missRate()))
	}
	return []*Table{t}
}

func init() {
	register(Experiment{
		ID:     "xline",
		Title:  "Line-size sensitivity: B-Cache reductions at 16/32/64-byte lines",
		Units:  func(opts Opts) []unit { return sweepUnits(xLineSweeps(opts)) },
		Render: renderXLine,
	})
}

// xLineSpecs returns the three configurations xline compares.
func xLineSpecs() []Spec {
	return []Spec{
		setAssocSpec(4, energy.Way4),
		setAssocSpec(8, energy.Way8),
		bcacheSpec(8, 8, cache.LRU),
	}
}

// xLineSweeps re-runs the Figure 4 sweep of xLineSpecs at 16-, 32- and
// 64-byte lines: the paper evaluates only 32-byte lines, but the
// balancing mechanism should be insensitive to the line size (conflicts
// are a set-indexing property).
func xLineSweeps(opts Opts) []sweep {
	var sws []sweep
	for _, line := range []int{16, 32, 64} {
		o := opts
		o.LineBytes = line
		sws = append(sws, sweep{o, workload.All(), xLineSpecs(), dSide})
	}
	return sws
}

func renderXLine(opts Opts, runs results) ([]*Table, error) {
	t := &Table{
		ID:    "xline",
		Title: "Average D$ miss-rate reduction vs line size (16kB)",
		Note:  "suite average over all 26 benchmarks; the B-Cache stays between 4- and 8-way at every line size",
		Headers: []string{
			"line", "4way", "8way", "MF8",
		},
	}
	for _, sw := range xLineSweeps(opts) {
		rates, err := sw.rates(runs)
		if err != nil {
			return nil, err
		}
		avg := func(name string) float64 { return averageReduction(sw, rates, name) }
		t.AddRow(fmt.Sprintf("%dB", sw.opts.LineBytes), pct(avg("4way")), pct(avg("8way")), pct(avg("MF8")))
	}
	return []*Table{t}, nil
}

func init() {
	register(gridExperiment("xwindow",
		"Instruction-window sensitivity: how much miss latency the window hides",
		xWindowGrid, renderXWindow))
}

// xWindows are the out-of-order window sizes xwindow sweeps.
var xWindows = []int{8, 16, 32, 64}

// xWindowGrid sweeps the out-of-order window size on the baseline and
// the B-Cache. equake's misses sit on dependence chains, so even an 8x
// larger window hides almost none of their latency: the B-Cache's gain
// is flat across window sizes. Out-of-order execution is not a
// substitute for removing conflict misses — the observation that
// motivates the paper. Config 2w+b runs xWindows[w] on the
// direct-mapped (b=0) or B-Cache (b=1) L1s.
func xWindowGrid(opts Opts) grid[cpu.Result] {
	var configs []string
	for _, w := range xWindows {
		configs = append(configs, fmt.Sprintf("w%d/dm", w), fmt.Sprintf("w%d/bc", w))
	}
	return grid[cpu.Result]{id: "xwindow", opts: opts, profiles: mustProfiles("equake"), configs: configs,
		run: func(tg *traceGroup, c int) (cpu.Result, error) {
			h, err := newL1Hierarchy(opts, c%2 == 1, hier.Defaults())
			if err != nil {
				return cpu.Result{}, err
			}
			cfg := cpu.Defaults()
			cfg.Window = xWindows[c/2]
			return runRecords(tg, h, cfg)
		},
		records: true}
}

func renderXWindow(_ Opts, _ grid[cpu.Result], runs [][]cpu.Result) []*Table {
	t := &Table{
		ID:    "xwindow",
		Title: "equake IPC vs window size (baseline / B-Cache / B-Cache gain)",
		Note:  "dependent misses defeat latency hiding at every window size; only removing them (the B-Cache) helps",
		Headers: []string{
			"window", "dm-IPC", "bc-IPC", "bc-gain",
		},
	}
	for w, window := range xWindows {
		dm, bc := runs[0][2*w].IPC(), runs[0][2*w+1].IPC()
		t.AddRow(fmt.Sprintf("%d", window), f3(dm), f3(bc), pct(bc/dm-1))
	}
	return []*Table{t}
}
