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
	register(Experiment{
		ID:    "xrelated",
		Title: "Related-work comparison: miss-rate reduction and hit latency per design (§7)",
		Run:   runXRelated,
	})
	register(Experiment{
		ID:    "xvipt",
		Title: "Virtually-indexed physically-tagged B-Cache with and without page coloring (§6.8)",
		Run:   runXVIPT,
	})
	register(Experiment{
		ID:    "xrecolor",
		Title: "OS page recoloring (CML) vs the B-Cache on conflict-bound benchmarks (§7.1)",
		Run:   runXRecolor,
	})
	register(Experiment{
		ID:    "xdrowsy",
		Title: "Drowsy-eligible frame fraction: baseline vs B-Cache (§6.4)",
		Run:   runXDrowsy,
	})
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

func runXRelated(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// Config 0 is the baseline every design's reduction is measured
	// against; config j+1 is specs[j].
	specs := append([]Spec{baselineSpec()}, relatedSpecs()...)
	type run struct{ misses, hits, extra uint64 }
	runs, err := profileUnits(opts, "xrelated", workload.All(), specNames(specs),
		func(p *workload.Profile, c int) (run, error) {
			at, err := cachedData(opts, p)
			if err != nil {
				return run{}, err
			}
			cc, err := specs[c].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return run{}, err
			}
			var r run
			for _, m := range at.accs {
				res := cc.Access(m.Addr(), m.Write())
				if res.Hit {
					r.hits++
					r.extra += uint64(res.ExtraLatency)
				}
			}
			r.misses = cc.Stats().Misses
			return r, nil
		})
	if err != nil {
		return nil, err
	}

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
		baseMisses += r[0].misses
	}
	for j, s := range specs[1:] {
		var sum run
		for _, r := range runs {
			sum.misses += r[j+1].misses
			sum.hits += r[j+1].hits
			sum.extra += r[j+1].extra
		}
		red := 0.0
		if baseMisses > 0 {
			red = 1 - float64(sum.misses)/float64(baseMisses)
		}
		lat := 1.0
		if sum.hits > 0 {
			lat = 1 + float64(sum.extra)/float64(sum.hits)
		}
		t.AddRow(s.Name, pct(red), fmt.Sprintf("%.3f", lat))
	}
	return []*Table{t}, nil
}

// dmBCSpecs returns the pair most extensions compare: the direct-mapped
// baseline and the B-Cache at MF=8, BAS=8.
func dmBCSpecs() []Spec {
	return []Spec{baselineSpec(), bcacheSpec(8, 8, cache.LRU)}
}

func runXVIPT(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	const pageBytes = 8192
	t := &Table{
		ID:    "xvipt",
		Title: "B-Cache under virtual addressing (8kB pages, 64-entry TLB)",
		Note:  "coloring preserves the PD's borrowed tag bits; the physical column is the PIPT reference",
		Headers: []string{
			"benchmark", "physical", "vipt-colored", "vipt-arbitrary", "tlb-miss",
		},
	}
	profiles, err := profilesByName("equake", "crafty", "gcc", "mcf")
	if err != nil {
		return nil, err
	}
	bcSpec := bcacheSpec(8, 8, cache.LRU)
	// One unit per benchmark: the colored address space the PIPT run
	// populates must be the one the VIPT-colored run translates through,
	// so both see the same frames.
	runs, err := profileUnits(opts, "xvipt", profiles, []string{bcSpec.Name},
		func(p *workload.Profile, _ int) ([]float64, error) {
			at, err := cachedData(opts, p)
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
			rates := []float64{pipt.Stats().MissRate()}
			var tlbMiss float64
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
				rates = append(rates, bc.Stats().MissRate())
				if i == 0 {
					tlbMiss = float64(tlb.Misses) / float64(tlb.Hits+tlb.Misses)
				}
			}
			return append(rates, tlbMiss), nil
		})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		r := runs[pi][0]
		t.AddRow(p.Name, pct(r[0]), pct(r[1]), pct(r[2]), pct(r[3]))
	}
	return []*Table{t}, nil
}

func runXRecolor(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	const pageBytes = 4096
	t := &Table{
		ID:    "xrecolor",
		Title: "OS page recoloring (CML buffer) vs hardware approaches (D$ miss rate)",
		Note:  "recoloring approaches 2-way behaviour (§7.1); the B-Cache reaches 4-way+ in hardware",
		Headers: []string{
			"benchmark", "dm", "dm+recolor", "remaps", "2way", "bcache",
		},
	}
	profiles, err := profilesByName("equake", "crafty", "twolf", "gcc")
	if err != nil {
		return nil, err
	}
	// Both configs translate through an identically-seeded arbitrary
	// allocator, so initial placements match. Config 0 ("phys") runs the
	// plain DM, 2-way and B-Cache on one shared address space; config 1
	// ("recolor") runs DM plus the recoloring policy on its own.
	specs := []Spec{baselineSpec(), setAssocSpec(2, 0), bcacheSpec(8, 8, cache.LRU)}
	type run struct {
		rates  []float64 // phys: per spec; recolor: the DM's
		remaps uint64
	}
	runs, err := profileUnits(opts, "xrecolor", profiles, []string{"phys", "recolor"},
		func(p *workload.Profile, c int) (run, error) {
			at, err := cachedData(opts, p)
			if err != nil {
				return run{}, err
			}
			as, err := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, Policy: vm.Arbitrary, Seed: 2})
			if err != nil {
				return run{}, err
			}
			if c == 0 {
				caches := make([]cache.Cache, len(specs))
				for i, s := range specs {
					if caches[i], err = s.New(opts.L1Size, opts.LineBytes); err != nil {
						return run{}, err
					}
				}
				for _, m := range at.accs {
					pa := as.Translate(m.Addr())
					for _, cc := range caches {
						cc.Access(pa, m.Write())
					}
				}
				var r run
				for _, cc := range caches {
					r.rates = append(r.rates, cc.Stats().MissRate())
				}
				return r, nil
			}
			rc, err := vm.NewRecolorer(as, opts.L1Size, 24)
			if err != nil {
				return run{}, err
			}
			dm, err := specs[0].New(opts.L1Size, opts.LineBytes)
			if err != nil {
				return run{}, err
			}
			for _, m := range at.accs {
				pa := as.Translate(m.Addr())
				rc.Note(m.Addr(), pa)
				if !dm.Access(pa, m.Write()).Hit {
					rc.OnMiss(pa)
				}
			}
			return run{rates: []float64{dm.Stats().MissRate()}, remaps: rc.Remaps}, nil
		})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		phys, rc := runs[pi][0], runs[pi][1]
		t.AddRow(p.Name,
			pct(phys.rates[0]),
			pct(rc.rates[0]),
			fmt.Sprintf("%d", rc.remaps),
			pct(phys.rates[1]),
			pct(phys.rates[2]))
	}
	return []*Table{t}, nil
}

func runXDrowsy(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	const window = 2048
	t := &Table{
		ID:    "xdrowsy",
		Title: "Drowsy-eligible frame fraction (window 2048 accesses): baseline vs B-Cache",
		Note:  "§6.4: the B-Cache balances accesses yet leaves cold frames for drowsy/decay techniques",
		Headers: []string{
			"benchmark", "dm-drowsy", "bc-drowsy", "dm-static-factor", "bc-static-factor",
		},
	}
	profiles, err := profilesByName("equake", "crafty", "art", "mcf", "gcc")
	if err != nil {
		return nil, err
	}
	specs := dmBCSpecs()
	runs, err := profileUnits(opts, "xdrowsy", profiles, specNames(specs),
		func(p *workload.Profile, c int) (float64, error) {
			at, err := cachedData(opts, p)
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
		})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		fDM, fBC := runs[pi][0], runs[pi][1]
		t.AddRow(p.Name, pct(fDM), pct(fBC),
			f3(energy.DrowsyStaticFactor(fDM)), f3(energy.DrowsyStaticFactor(fBC)))
	}
	return []*Table{t}, nil
}

func init() {
	register(Experiment{
		ID:    "x3c",
		Title: "3C miss decomposition (D$): the B-Cache removes conflict misses only",
		Run:   runX3C,
	})
}

func runX3C(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "x3c",
		Title: "Compulsory/capacity/conflict decomposition of D$ misses (% of accesses)",
		Note:  "the B-Cache (MF8/BAS8) attacks the conflict column; compulsory and capacity are indexing-independent",
		Headers: []string{
			"benchmark", "cfg", "compulsory", "capacity", "conflict", "total-miss",
		},
	}
	profiles, err := profilesByName("equake", "crafty", "gcc", "art", "mcf", "wupwise")
	if err != nil {
		return nil, err
	}
	specs := dmBCSpecs()
	runs, err := profileUnits(opts, "x3c", profiles, specNames(specs),
		func(p *workload.Profile, c int) (threec.Counts, error) {
			at, err := cachedData(opts, p)
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
		})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
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
	return []*Table{t}, nil
}

func init() {
	register(Experiment{
		ID:    "xprefetch",
		Title: "Stream-buffer prefetching is orthogonal to B-Cache balancing (IPC)",
		Run:   runXPrefetch,
	})
}

// runXPrefetch contrasts the two miss-reduction mechanisms of the era:
// a stream buffer attacks sequential (capacity/compulsory) misses, the
// B-Cache attacks conflict misses. On streaming benchmarks the buffer
// wins; on conflict-bound ones the B-Cache wins; together they compose.
func runXPrefetch(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "xprefetch",
		Title: "IPC with and without an 8-entry data stream buffer",
		Note:  "dm = direct-mapped baseline, bc = B-Cache MF8/BAS8; +sb adds the stream buffer",
		Headers: []string{
			"benchmark", "dm", "dm+sb", "bc", "bc+sb", "sb-hit-rate",
		},
	}
	profiles, err := profilesByName("art", "swim", "equake", "crafty", "mcf")
	if err != nil {
		return nil, err
	}
	// Config c: bit 1 selects the B-Cache L1s, bit 0 the stream buffer.
	type run struct{ ipc, sbRate float64 }
	runs, err := profileUnits(opts, "xprefetch", profiles, []string{"dm", "dm+sb", "bc", "bc+sb"},
		func(p *workload.Profile, c int) (run, error) {
			cfg := hier.Defaults()
			if c&1 != 0 {
				cfg.StreamBuffer = 8
			}
			h, err := newL1Hierarchy(opts, c&2 != 0, cfg)
			if err != nil {
				return run{}, err
			}
			res, err := runRecords(opts, p, h, cpu.Defaults())
			if err != nil {
				return run{}, err
			}
			r := run{ipc: res.IPC()}
			if h.Prefetches > 0 {
				r.sbRate = float64(h.StreamHits) / float64(h.Prefetches)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		r := runs[pi]
		t.AddRow(p.Name, f3(r[0].ipc), f3(r[1].ipc), f3(r[2].ipc), f3(r[3].ipc), pct(r[1].sbRate))
	}
	return []*Table{t}, nil
}

// profilesByName resolves benchmark names in order.
func profilesByName(names ...string) ([]*workload.Profile, error) {
	out := make([]*workload.Profile, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
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

// runRecords runs p's cached record trace through the CPU model on h.
// Call it from a profileUnits unit, whose group end retires the trace.
func runRecords(opts Opts, p *workload.Profile, h *hier.Hierarchy, cfg cpu.Config) (cpu.Result, error) {
	rt, err := cachedRecords(opts, p)
	if err != nil {
		return cpu.Result{}, err
	}
	return cpu.Run(trace.NewSliceStream(rt.recs), h, cfg, opts.Instructions)
}

func init() {
	register(Experiment{
		ID:    "xl2",
		Title: "The B-Cache mechanism applied at the L2 (misses per 1k instructions)",
		Run:   runXL2,
	})
}

// runXL2 swaps the unified 256kB L2 between direct-mapped, B-Cache
// (MF=8, BAS=8) and the paper's 4-way baseline: the balancing idea is
// not level-one specific.
func runXL2(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "xl2",
		Title: "L2 organization sweep (16kB DM L1s in front): L2 miss rate",
		Note:  "an L2 B-Cache recovers most of the associativity a 4-way L2 provides, at direct-mapped access time",
		Headers: []string{
			"benchmark", "dm-l2", "bcache-l2", "4way-l2",
		},
	}
	cfg := hier.Defaults()
	l2s := []Spec{baselineSpec(), bcacheSpec(8, 8, cache.LRU), setAssocSpec(cfg.L2Ways, 0)}
	profiles, err := profilesByName("mcf", "gcc", "equake", "ammp")
	if err != nil {
		return nil, err
	}
	runs, err := profileUnits(opts, "xl2", profiles, t.Headers[1:],
		func(p *workload.Profile, c int) (float64, error) {
			ic, err := cache.NewDirectMapped(opts.L1Size, opts.LineBytes)
			if err != nil {
				return 0, err
			}
			dc, err := cache.NewDirectMapped(opts.L1Size, opts.LineBytes)
			if err != nil {
				return 0, err
			}
			l2, err := l2s[c].New(cfg.L2Size, cfg.L2Line)
			if err != nil {
				return 0, err
			}
			h, err := hier.NewWithL2(ic, dc, l2, cfg)
			if err != nil {
				return 0, err
			}
			if _, err := runRecords(opts, p, h, cpu.Defaults()); err != nil {
				return 0, err
			}
			return l2.Stats().MissRate(), nil
		})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		r := runs[pi]
		t.AddRow(p.Name, pct(r[0]), pct(r[1]), pct(r[2]))
	}
	return []*Table{t}, nil
}

func init() {
	register(sweepExperiment("xline",
		"Line-size sensitivity: B-Cache reductions at 16/32/64-byte lines",
		xLineSweeps, renderXLine, false))
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

func renderXLine(sws []sweep, res []missResults) []*Table {
	t := &Table{
		ID:    "xline",
		Title: "Average D$ miss-rate reduction vs line size (16kB)",
		Note:  "suite average over all 26 benchmarks; the B-Cache stays between 4- and 8-way at every line size",
		Headers: []string{
			"line", "4way", "8way", "MF8",
		},
	}
	for i, sw := range sws {
		avg := func(name string) float64 { return averageReduction(sw, res[i], name) }
		t.AddRow(fmt.Sprintf("%dB", sw.opts.LineBytes), pct(avg("4way")), pct(avg("8way")), pct(avg("MF8")))
	}
	return []*Table{t}
}

func init() {
	register(Experiment{
		ID:    "xwindow",
		Title: "Instruction-window sensitivity: how much miss latency the window hides",
		Run:   runXWindow,
	})
}

// runXWindow sweeps the out-of-order window size on the baseline and the
// B-Cache. equake's misses sit on dependence chains, so even an 8x larger
// window hides almost none of their latency: the B-Cache's gain is flat
// across window sizes. Out-of-order execution is not a substitute for
// removing conflict misses — the observation that motivates the paper.
func runXWindow(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "xwindow",
		Title: "equake IPC vs window size (baseline / B-Cache / B-Cache gain)",
		Note:  "dependent misses defeat latency hiding at every window size; only removing them (the B-Cache) helps",
		Headers: []string{
			"window", "dm-IPC", "bc-IPC", "bc-gain",
		},
	}
	profiles, err := profilesByName("equake")
	if err != nil {
		return nil, err
	}
	// Config 2w+b runs windows[w] on the direct-mapped (b=0) or B-Cache
	// (b=1) L1s.
	windows := []int{8, 16, 32, 64}
	var configs []string
	for _, w := range windows {
		configs = append(configs, fmt.Sprintf("w%d/dm", w), fmt.Sprintf("w%d/bc", w))
	}
	runs, err := profileUnits(opts, "xwindow", profiles, configs,
		func(p *workload.Profile, c int) (float64, error) {
			h, err := newL1Hierarchy(opts, c%2 == 1, hier.Defaults())
			if err != nil {
				return 0, err
			}
			cfg := cpu.Defaults()
			cfg.Window = windows[c/2]
			res, err := runRecords(opts, p, h, cfg)
			if err != nil {
				return 0, err
			}
			return res.IPC(), nil
		})
	if err != nil {
		return nil, err
	}
	for w, window := range windows {
		dm, bc := runs[0][2*w], runs[0][2*w+1]
		t.AddRow(fmt.Sprintf("%d", window), f3(dm), f3(bc), pct(bc/dm-1))
	}
	return []*Table{t}, nil
}
