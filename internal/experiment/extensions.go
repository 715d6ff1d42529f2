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
		run: func(_ *workload.Profile, c int) (engine[relatedRun], error) {
			cc, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[relatedRun]{}, err
			}
			var r relatedRun
			return engine[relatedRun]{feed: func(ch *chunk) {
				for _, m := range ch.data {
					res := cc.Access(m.Addr(), m.Write())
					if res.Hit {
						r.Hits++
						r.Extra += uint64(res.ExtraLatency)
					}
				}
			}, results: func() (relatedRun, error) {
				r.Misses = cc.Stats().Misses
				return r, nil
			}}, nil
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
		run: func(*workload.Profile, int) (engine[[]UnitResult], error) {
			colored, err := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, ColorBits: 4, Policy: vm.Colored, Seed: 1})
			if err != nil {
				return engine[[]UnitResult]{}, err
			}
			arbitrary, err := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, Policy: vm.Arbitrary, Seed: 1})
			if err != nil {
				return engine[[]UnitResult]{}, err
			}
			pipt, err := bcSpec.New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[[]UnitResult]{}, err
			}
			// The PIPT run translates each access first, so the colored
			// space maps a page before a VIPT run translates through it.
			var bcs [2]cache.Cache
			var tlbs [2]*vm.TLB
			var vipts [2]*vm.VIPT
			for i, as := range []*vm.AddressSpace{colored, arbitrary} {
				if bcs[i], err = bcSpec.New(opts.L1Size, opts.LineBytes); err != nil {
					return engine[[]UnitResult]{}, err
				}
				if tlbs[i], err = vm.NewTLB(64); err != nil {
					return engine[[]UnitResult]{}, err
				}
				if vipts[i], err = vm.NewVIPT(bcs[i], as, tlbs[i], 17); err != nil {
					return engine[[]UnitResult]{}, err
				}
			}
			return engine[[]UnitResult]{feed: func(ch *chunk) {
				for _, m := range ch.data {
					pipt.Access(colored.Translate(m.Addr()), m.Write())
				}
				for _, vipt := range vipts {
					for _, m := range ch.data {
						vipt.Access(m.Addr(), m.Write())
					}
				}
			}, results: func() ([]UnitResult, error) {
				return []UnitResult{statsResult(pipt), statsResult(bcs[0]), statsResult(bcs[1]),
					{Misses: tlbs[0].Misses, Accesses: tlbs[0].Hits + tlbs[0].Misses}}, nil
			}}, nil
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
		run: func(_ *workload.Profile, c int) (engine[recolorRun], error) {
			as, err := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, Policy: vm.Arbitrary, Seed: 2})
			if err != nil {
				return engine[recolorRun]{}, err
			}
			if c == 0 {
				caches := make([]cache.Cache, len(specs))
				for i, s := range specs {
					if caches[i], err = s.New(opts.L1Size, opts.LineBytes); err != nil {
						return engine[recolorRun]{}, err
					}
				}
				return engine[recolorRun]{feed: func(ch *chunk) {
					for _, m := range ch.data {
						pa := as.Translate(m.Addr())
						for _, cc := range caches {
							cc.Access(pa, m.Write())
						}
					}
				}, results: func() (recolorRun, error) {
					var r recolorRun
					for _, cc := range caches {
						r.Caches = append(r.Caches, statsResult(cc))
					}
					return r, nil
				}}, nil
			}
			rc, err := vm.NewRecolorer(as, opts.L1Size, 24)
			if err != nil {
				return engine[recolorRun]{}, err
			}
			dm, err := specs[0].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[recolorRun]{}, err
			}
			return engine[recolorRun]{feed: func(ch *chunk) {
				for _, m := range ch.data {
					pa := as.Translate(m.Addr())
					rc.Note(m.Addr(), pa)
					if !dm.Access(pa, m.Write()).Hit {
						rc.OnMiss(pa)
					}
				}
			}, results: func() (recolorRun, error) {
				return recolorRun{Caches: []UnitResult{statsResult(dm)}, Remaps: rc.Remaps}, nil
			}}, nil
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
		run: func(_ *workload.Profile, c int) (engine[float64], error) {
			cc, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[float64]{}, err
			}
			d, err := stats.NewDrowsyTracker(cc.Geometry().Frames, window)
			if err != nil {
				return engine[float64]{}, err
			}
			return engine[float64]{feed: func(ch *chunk) {
				for _, m := range ch.data {
					d.Touch(cc.Access(m.Addr(), m.Write()).Frame)
				}
			}, results: func() (float64, error) { return d.DrowsyFraction(), nil }}, nil
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
		run: func(_ *workload.Profile, c int) (engine[threec.Counts], error) {
			under, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[threec.Counts]{}, err
			}
			cl, err := threec.New(under)
			if err != nil {
				return engine[threec.Counts]{}, err
			}
			return engine[threec.Counts]{feed: func(ch *chunk) {
				for _, m := range ch.data {
					cl.Access(m.Addr(), m.Write())
				}
			}, results: func() (threec.Counts, error) { return cl.Counts(), nil }}, nil
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
	register(timedExtension("xprefetch",
		"Stream-buffer prefetching is orthogonal to B-Cache balancing (IPC)",
		xPrefetchGrid, renderXPrefetch))
}

// timedExtension builds an experiment that compares own's runs with the
// timed sweep's baseline and B-Cache runs of the same profiles: its
// units are those timed runs, committed under the timed family's keys
// (so a campaign with fig8 simulates them once), then own's. render
// gets both indexed [profile][config].
func timedExtension[R any](id, title string, own func(Opts) grid[R],
	render func(g grid[R], timed [][]timedRun, runs [][]R) []*Table) Experiment {
	return Experiment{ID: id, Title: title,
		Units: func(opts Opts) []unit {
			g := own(opts)
			return append(timedDMBC(opts, g.profiles).units(), g.units()...)
		},
		Render: func(opts Opts, res results) ([]*Table, error) {
			g := own(opts)
			timed, err := timedDMBC(opts, g.profiles).collect(res)
			if err != nil {
				return nil, err
			}
			runs, err := g.collect(res)
			if err != nil {
				return nil, err
			}
			return render(g, timed, runs), nil
		}}
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
// Its configs add an 8-entry stream buffer to the direct-mapped (dm+sb)
// and the B-Cache (bc+sb) L1s; the runs without one are the timed
// sweep's.
func xPrefetchGrid(opts Opts) grid[prefetchRun] {
	return grid[prefetchRun]{id: "xprefetch", opts: opts,
		profiles: mustProfiles("art", "swim", "equake", "crafty", "mcf"),
		configs:  []string{"dm+sb", "bc+sb"},
		run: func(_ *workload.Profile, c int) (engine[prefetchRun], error) {
			cfg := hier.Defaults()
			cfg.StreamBuffer = 8
			h, err := newL1Hierarchy(opts, c == 1, cfg)
			if err != nil {
				return engine[prefetchRun]{}, err
			}
			return cpuEngine(h, cpu.Defaults(), func(res cpu.Result) (prefetchRun, error) {
				return prefetchRun{CPU: res, StreamHits: h.StreamHits, Prefetches: h.Prefetches}, nil
			})
		},
		reads: recordStream}
}

func renderXPrefetch(g grid[prefetchRun], timed [][]timedRun, runs [][]prefetchRun) []*Table {
	t := &Table{
		ID:    "xprefetch",
		Title: "IPC with and without an 8-entry data stream buffer",
		Note:  "dm = direct-mapped baseline, bc = B-Cache MF8/BAS8; +sb adds the stream buffer",
		Headers: []string{
			"benchmark", "dm", "dm+sb", "bc", "bc+sb", "sb-hit-rate",
		},
	}
	for pi, p := range g.profiles {
		dm, bc, dmSB, bcSB := timed[pi][0].CPU, timed[pi][1].CPU, runs[pi][0], runs[pi][1]
		sbRate := 0.0
		if dmSB.Prefetches > 0 {
			sbRate = float64(dmSB.StreamHits) / float64(dmSB.Prefetches)
		}
		t.AddRow(p.Name, f3(dm.IPC()), f3(dmSB.CPU.IPC()), f3(bc.IPC()), f3(bcSB.CPU.IPC()), pct(sbRate))
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
		run: func(_ *workload.Profile, c int) (engine[UnitResult], error) {
			ic, err := cache.NewDirectMapped(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[UnitResult]{}, err
			}
			dc, err := cache.NewDirectMapped(opts.L1Size, opts.LineBytes)
			if err != nil {
				return engine[UnitResult]{}, err
			}
			l2, err := l2s[c].New(cfg.L2Size, cfg.L2Line)
			if err != nil {
				return engine[UnitResult]{}, err
			}
			h, err := hier.NewWithL2(ic, dc, l2, cfg)
			if err != nil {
				return engine[UnitResult]{}, err
			}
			return cpuEngine(h, cpu.Defaults(), func(cpu.Result) (UnitResult, error) { return statsResult(l2), nil })
		},
		reads: recordStream}
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
	register(timedExtension("xwindow",
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
// motivates the paper. Config 2w+b runs the w-th window other than the
// Table 4 default on the direct-mapped (b=0) or B-Cache (b=1) L1s; the
// default window's runs are the timed sweep's.
func xWindowGrid(opts Opts) grid[cpu.Result] {
	var configs []string
	var windows []int
	for _, w := range xWindows {
		if w != cpu.Defaults().Window {
			configs = append(configs, fmt.Sprintf("w%d/dm", w), fmt.Sprintf("w%d/bc", w))
			windows = append(windows, w)
		}
	}
	return grid[cpu.Result]{id: "xwindow", opts: opts, profiles: mustProfiles("equake"), configs: configs,
		run: func(_ *workload.Profile, c int) (engine[cpu.Result], error) {
			h, err := newL1Hierarchy(opts, c%2 == 1, hier.Defaults())
			if err != nil {
				return engine[cpu.Result]{}, err
			}
			cfg := cpu.Defaults()
			cfg.Window = windows[c/2]
			return cpuEngine(h, cfg, func(res cpu.Result) (cpu.Result, error) { return res, nil })
		},
		reads: recordStream}
}

func renderXWindow(_ grid[cpu.Result], timed [][]timedRun, runs [][]cpu.Result) []*Table {
	t := &Table{
		ID:    "xwindow",
		Title: "equake IPC vs window size (baseline / B-Cache / B-Cache gain)",
		Note:  "dependent misses defeat latency hiding at every window size; only removing them (the B-Cache) helps",
		Headers: []string{
			"window", "dm-IPC", "bc-IPC", "bc-gain",
		},
	}
	own := runs[0]
	for _, window := range xWindows {
		var dm, bc float64
		if window == cpu.Defaults().Window {
			dm, bc = timed[0][0].CPU.IPC(), timed[0][1].CPU.IPC()
		} else {
			dm, bc = own[0].IPC(), own[1].IPC()
			own = own[2:]
		}
		t.AddRow(fmt.Sprintf("%d", window), f3(dm), f3(bc), pct(bc/dm-1))
	}
	return []*Table{t}
}
