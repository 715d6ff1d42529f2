package experiment

import (
	"fmt"
	"slices"

	"bcache/internal/cache"
	"bcache/internal/fault"
	"bcache/internal/workload"
)

// The fault campaign measures what the paper's evaluation never had to:
// the B-Cache concentrates its mechanism in mutable decoder state, so a
// soft error there is qualitatively worse than one in a conventional
// cache's metadata. This experiment sweeps injection rate × protection
// model across MF×BAS design points and reports miss-rate inflation,
// fault classification, scrubber activity, and whether any configuration
// ended a run degraded or — the one outcome the robustness layer
// forbids — with a silently broken invariant.

func init() {
	register(gridExperiment("fault",
		"Soft-error campaign: miss rate and corruption vs injection rate across MF×BAS",
		faultGrid, renderFaultCampaign))
}

// faultGeometries are the MF×BAS design points under test: the paper's
// design (8,8), a low-MF point, a BAS=4 point (scalar-relevant PD
// shape), and the largest PD of Figure 4.
var faultGeometries = []struct{ mf, bas int }{
	{2, 8}, {8, 8}, {8, 4}, {16, 8},
}

// faultRates are the per-access injection probabilities swept; 0 is the
// fault-free reference each geometry's miss inflation is measured
// against.
var faultRates = []float64{0, 1e-5, 1e-4, 1e-3}

// faultProfiles are the benchmarks the campaign replays (a
// conflict-heavy trio, so decoder damage shows up in the miss rate).
func faultProfiles() []*workload.Profile { return mustProfiles("equake", "crafty", "gcc") }

// campaignSeed derives the deterministic injection seed of one
// (row, profile) cell; the golden-ratio multiplier keeps streams apart.
func campaignSeed(row, profile int) uint64 {
	return 0x9E3779B97F4A7C15*uint64(row+1) + uint64(profile+1)
}

// faultRow is one campaign row: a design point under one injection
// rate and protection model.
type faultRow struct {
	mf, bas int
	rate    float64
	prot    fault.Protection
}

// faultRows lists the campaign rows in table order.
func faultRows() []faultRow {
	var rows []faultRow
	for _, g := range faultGeometries {
		for _, rate := range faultRates {
			if rate == 0 {
				// The fault-free reference needs no protection sweep.
				rows = append(rows, faultRow{g.mf, g.bas, 0, fault.None})
				continue
			}
			for _, prot := range []fault.Protection{fault.None, fault.Parity, fault.SECDED} {
				rows = append(rows, faultRow{g.mf, g.bas, rate, prot})
			}
		}
	}
	return rows
}

// faultCell is one (profile, row) run's outcome: Repaired counts PD
// scrub repairs, Degraded is 1 when the run ended in direct-mapped
// fallback, and Invariant holds an end-of-run invariant violation (""
// = the run ended clean or explicitly degraded).
type faultCell struct {
	Misses    uint64       `json:"misses"`
	Accesses  uint64       `json:"accesses"`
	Counts    fault.Counts `json:"counts"`
	Repaired  int          `json:"repaired"`
	Degraded  int          `json:"degraded"`
	Invariant string       `json:"invariant,omitempty"`
}

// faultGrid runs every (profile, row) cell as its own unit.
func faultGrid(opts Opts) grid[faultCell] {
	profiles, rows := faultProfiles(), faultRows()
	var configs []string
	var specs []Spec
	for _, r := range rows {
		configs = append(configs, fmt.Sprintf("MF%d-BAS%d-r%g-%s", r.mf, r.bas, r.rate, r.prot))
		specs = append(specs, bcacheSpec(r.mf, r.bas))
	}
	return grid[faultCell]{id: "fault", opts: opts, profiles: profiles, configs: configs, specs: specs,
		run: func(p *workload.Profile, ri int) (engine[faultCell], error) {
			return faultEngine(opts, rows[ri], campaignSeed(ri, slices.Index(profiles, p)))
		}}
}

// faultEngine replays a data stream through a fault-injected B-Cache.
func faultEngine(opts Opts, r faultRow, seed uint64) (engine[faultCell], error) {
	bc, err := bcacheSpec(r.mf, r.bas).New(opts.L1Size, opts.LineBytes)
	if err != nil {
		return engine[faultCell]{}, err
	}
	in, err := fault.Wrap(bc, fault.Config{
		Rate:       r.rate,
		Protection: r.prot,
		Seed:       seed,
		ScrubEvery: 4096,
	})
	if err != nil {
		return engine[faultCell]{}, err
	}
	return engine[faultCell]{feed: func(ch *chunk) { cache.Replay(in, ch.data, nil) }, results: func() (faultCell, error) {
		invErr := in.FinalScrub()
		st := in.Stats()
		scrub, _ := in.ScrubTotals()
		cell := faultCell{Misses: st.Misses, Accesses: st.Accesses, Counts: in.Counts(), Repaired: scrub.Repaired}
		if in.Degraded() {
			cell.Degraded = 1
		}
		if invErr != nil && !in.Degraded() {
			cell.Invariant = invErr.Error()
		}
		return cell, nil
	}}, nil
}

func renderFaultCampaign(opts Opts, g grid[faultCell], runs [][]faultCell) []*Table {
	rows := faultRows()

	// Reduce across profiles and index the fault-free reference rates.
	agg := make([]faultCell, len(rows))
	for ri := range rows {
		a := &agg[ri]
		for pi := range g.profiles {
			c := runs[pi][ri]
			a.Misses += c.Misses
			a.Accesses += c.Accesses
			a.Counts.Injected += c.Counts.Injected
			a.Counts.Silent += c.Counts.Silent
			a.Counts.Detected += c.Counts.Detected
			a.Counts.Corrected += c.Counts.Corrected
			a.Repaired += c.Repaired
			a.Degraded += c.Degraded
			if a.Invariant == "" {
				a.Invariant = c.Invariant
			}
		}
	}
	ref := map[[2]int]float64{}
	for ri, r := range rows {
		if r.rate == 0 && agg[ri].Accesses > 0 {
			ref[[2]int{r.mf, r.bas}] = float64(agg[ri].Misses) / float64(agg[ri].Accesses)
		}
	}

	t := &Table{
		ID:    "fault",
		Title: "Miss rate and fault outcomes vs per-access soft-error rate (D$, 3 benchmarks)",
		Note: fmt.Sprintf("deterministic injection, PD scrub every 4096 accesses, %d instructions",
			opts.Instructions),
		Headers: []string{"config", "protect", "rate", "miss", "Δmiss-pp",
			"injected", "silent", "detected", "corrected", "repairs", "degraded", "invariant"},
	}
	for ri, r := range rows {
		a := agg[ri]
		miss := 0.0
		if a.Accesses > 0 {
			miss = float64(a.Misses) / float64(a.Accesses)
		}
		delta := 100 * (miss - ref[[2]int{r.mf, r.bas}])
		inv := "ok"
		if a.Invariant != "" {
			inv = "VIOLATED"
		}
		t.AddRow(
			fmt.Sprintf("MF%d/BAS%d", r.mf, r.bas),
			r.prot.String(),
			fmt.Sprintf("%.0e", r.rate),
			pct(miss),
			fmt.Sprintf("%+.3f", delta),
			fmt.Sprintf("%d", a.Counts.Injected),
			fmt.Sprintf("%d", a.Counts.Silent),
			fmt.Sprintf("%d", a.Counts.Detected),
			fmt.Sprintf("%d", a.Counts.Corrected),
			fmt.Sprintf("%d", a.Repaired),
			fmt.Sprintf("%d/%d", a.Degraded, len(g.profiles)),
			inv,
		)
	}
	return []*Table{t}
}
