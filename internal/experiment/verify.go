package experiment

import (
	"fmt"
	"io"
	"strings"

	"bcache/internal/area"
	"bcache/internal/core"
	"bcache/internal/energy"
	"bcache/internal/threec"
	"bcache/internal/timing"
)

// A Check is one machine-verifiable claim from the paper. Running all of
// them (cmd/experiments -verify) produces the reproduction certificate:
// every headline comparative statement of the evaluation, checked against
// freshly simulated results.
type Check struct {
	// ID names the check, grouped by the artifact it belongs to.
	ID string
	// Claim quotes or paraphrases the paper's statement.
	Claim string
	// Units declares the simulations the check reads (nil for the
	// analytic checks). Their keys are the experiments' own, so a check
	// shares its results with the artifact it verifies.
	Units func(Opts) []unit
	// Eval measures the claim on the units' results; measured is a
	// short human-readable summary of what was found.
	Eval func(Opts, results) (measured string, pass bool, err error)
}

// Checks returns the reproduction checklist.
func Checks() []Check {
	return []Check{
		{
			ID:    "fig3-cliff",
			Claim: "wupwise's PD hit rate during misses stays high through MF=32 and collapses by MF=64, with the miss rate tracking it (Fig. 3)",
			Units: fig3CliffUnits,
			Eval:  checkFig3Cliff,
		},
		{
			ID:    "fig4-ordering",
			Claim: "the B-Cache's average D$ miss reduction is at least 4-way-like and below the 8-way bound (§4.3.3)",
			Units: fig4Units,
			Eval:  checkFig4Ordering,
		},
		{
			ID:    "fig4-saturation",
			Claim: "raising MF from 8 to 16 gains much less than from 4 to 8 (§4.3.2)",
			Units: fig4Units,
			Eval:  checkFig4Saturation,
		},
		{
			ID:    "fig4-victim",
			Claim: "the B-Cache beats a 16-entry victim buffer on average (§6.6)",
			Units: fig4Units,
			Eval:  checkFig4Victim,
		},
		{
			ID:    "fig4-streamers",
			Claim: "art, lucas, swim and mcf barely respond to associativity (§6.4: no frequent miss sets)",
			Units: fig4Units,
			Eval:  checkStreamers,
		},
		{
			ID:    "fig4-wupwise",
			Claim: "wupwise is the benchmark where the victim buffer beats the B-Cache (§6.6)",
			Units: fig4Units,
			Eval:  checkWupwise,
		},
		{
			ID:    "fig5-icache",
			Claim: "on the instruction side the B-Cache approaches 8-way and leads the victim buffer by a wide margin (§6.6: 37.9% higher)",
			Units: fig5Units,
			Eval:  checkFig5,
		},
		{
			ID:    "table1-slack",
			Claim: "every B-Cache decoder fits the original decoder's time slack (§5.1)",
			Eval:  checkTable1,
		},
		{
			ID:    "table2-area",
			Claim: "the B-Cache adds 4.3% area, less than a 4-way cache's 7.98% (§5.3)",
			Eval:  checkTable2,
		},
		{
			ID:    "table3-energy",
			Claim: "the B-Cache consumes 10.5% more per access but far less than set-associative caches (§5.4)",
			Eval:  checkTable3,
		},
		{
			ID:    "table5-crossover",
			Claim: "at equal PD length design B (BAS=4) wins below 6 bits and design A (BAS=8) wins at 6 (§6.3)",
			Units: table5Units,
			Eval:  checkTable5,
		},
		{
			ID:    "table7-balance",
			Claim: "the B-Cache spreads hits over more sets and shrinks the less-accessed population (§6.4)",
			Units: table7Units,
			Eval:  checkTable7,
		},
		{
			ID:    "x3c-conflict-only",
			Claim: "the B-Cache removes conflict misses while compulsory misses are untouched (the mechanism's definition)",
			Units: x3cUnits,
			Eval:  check3C,
		},
	}
}

// Verify runs every check at the given scale, writing a line per check to
// w, and returns the pass/fail totals. The checks' units run first, as
// one trace-major campaign in one scheduler call, so each trace is built
// once for every check that reads it; err is that campaign's error.
func Verify(opts Opts, w io.Writer) (passed, failed int, err error) {
	if err := opts.validate(); err != nil {
		return 0, 0, err
	}
	checks := Checks()
	exps := make([]Experiment, len(checks))
	for i, c := range checks {
		exps[i] = Experiment{ID: c.ID, Units: c.Units}
	}
	res, err := runUnits(opts, campaignUnits(opts, exps))
	for _, c := range checks {
		measured, ok, cerr := c.Eval(opts, res)
		switch {
		case cerr != nil:
			failed++
			fmt.Fprintf(w, "ERROR %-18s %v\n", c.ID, cerr)
		case ok:
			passed++
			fmt.Fprintf(w, "PASS  %-18s %s\n", c.ID, measured)
		default:
			failed++
			fmt.Fprintf(w, "FAIL  %-18s %s\n", c.ID, measured)
			fmt.Fprintf(w, "      claim: %s\n", c.Claim)
		}
	}
	fmt.Fprintf(w, "\n%d passed, %d failed of %d checks\n", passed, failed, passed+failed)
	return passed, failed, err
}

// The checks' unit lists: each is part of the experiment it verifies.

// fig3CliffGrid is Figure 3's grid at the two MFs around the cliff.
func fig3CliffGrid(opts Opts) grid[UnitResult] { return fig3GridMF(opts, []int{32, 64}) }

func fig3CliffUnits(opts Opts) []unit { return fig3CliffGrid(opts).units() }
func fig4Units(opts Opts) []unit      { return fig4Sweep(opts).units() }
func fig5Units(opts Opts) []unit      { return fig5Sweep(opts).units() }
func table5Units(opts Opts) []unit    { return designSweep(opts).units() }
func table7Units(opts Opts) []unit    { return table7Grid(opts).units() }
func x3cUnits(opts Opts) []unit       { return equake3CGrid(opts).units() }

// equake3CGrid is x3c's grid on equake alone.
func equake3CGrid(opts Opts) grid[threec.Counts] {
	g := x3CGrid(opts)
	g.profiles = mustProfiles("equake")
	return g
}

// ---- individual checks ----

func checkFig3Cliff(opts Opts, res results) (string, bool, error) {
	runs, err := fig3CliffGrid(opts).collect(res)
	if err != nil {
		return "", false, err
	}
	rate := func(r UnitResult) (float64, float64) {
		pd := core.PDStats{MissPDHit: r.PDHit, MissPDMiss: r.PDMiss}
		return r.missRate(), pd.HitRateDuringMiss()
	}
	m32, pd32 := rate(runs[0][0])
	m64, pd64 := rate(runs[0][1])
	msg := fmt.Sprintf("PD hit on miss %.0f%%→%.0f%%, miss %.1f%%→%.1f%% across MF 32→64",
		100*pd32, 100*pd64, 100*m32, 100*m64)
	return msg, pd32 > 0.4 && pd64 < 0.2 && m64 < m32, nil
}

// fig4Averages reduces the Figure 4 sweep's results to suite-average
// reductions per spec name.
func fig4Averages(opts Opts, res results) (map[string]float64, missResults, error) {
	sw := fig4Sweep(opts)
	rates, err := sw.rates(res)
	if err != nil {
		return nil, nil, err
	}
	avg := map[string]float64{}
	for _, s := range sw.specs {
		avg[s.Name] = averageReduction(sw, rates, s.Name)
	}
	return avg, rates, nil
}

func checkFig4Ordering(opts Opts, res results) (string, bool, error) {
	avg, _, err := fig4Averages(opts, res)
	if err != nil {
		return "", false, err
	}
	msg := fmt.Sprintf("4way %.1f%% ≤ B-Cache %.1f%% ≤ 8way %.1f%%",
		100*avg["4way"], 100*avg["MF8"], 100*avg["8way"])
	pass := avg["MF8"] >= avg["4way"]*0.85 && avg["MF8"] <= avg["8way"]*1.02
	return msg, pass, nil
}

func checkFig4Saturation(opts Opts, res results) (string, bool, error) {
	avg, _, err := fig4Averages(opts, res)
	if err != nil {
		return "", false, err
	}
	gain48 := avg["MF8"] - avg["MF4"]
	gain816 := avg["MF16"] - avg["MF8"]
	msg := fmt.Sprintf("MF4→8 gains %.1f points, MF8→16 gains %.1f", 100*gain48, 100*gain816)
	return msg, gain816 < gain48, nil
}

func checkFig4Victim(opts Opts, res results) (string, bool, error) {
	avg, _, err := fig4Averages(opts, res)
	if err != nil {
		return "", false, err
	}
	msg := fmt.Sprintf("B-Cache %.1f%% vs victim16 %.1f%%", 100*avg["MF8"], 100*avg["victim16"])
	return msg, avg["MF8"] > avg["victim16"], nil
}

func checkStreamers(opts Opts, res results) (string, bool, error) {
	_, rates, err := fig4Averages(opts, res)
	if err != nil {
		return "", false, err
	}
	var parts []string
	pass := true
	for _, name := range []string{"art", "lucas", "swim", "mcf"} {
		r := reduction(rates[name]["baseline"], rates[name]["8way"])
		parts = append(parts, fmt.Sprintf("%s %.0f%%", name, 100*r))
		if r > 0.25 {
			pass = false
		}
	}
	return "8-way recovers only " + strings.Join(parts, ", "), pass, nil
}

func checkWupwise(opts Opts, res results) (string, bool, error) {
	_, rates, err := fig4Averages(opts, res)
	if err != nil {
		return "", false, err
	}
	row := rates["wupwise"]
	rv := reduction(row["baseline"], row["victim16"])
	rb := reduction(row["baseline"], row["MF8"])
	msg := fmt.Sprintf("victim16 %.1f%% vs B-Cache %.1f%%", 100*rv, 100*rb)
	return msg, rv > rb, nil
}

func checkFig5(opts Opts, res results) (string, bool, error) {
	sw := fig5Sweep(opts)
	rates, err := sw.rates(res)
	if err != nil {
		return "", false, err
	}
	avg := func(name string) float64 { return averageReduction(sw, rates, name) }
	bc, v, w8 := avg("MF8"), avg("victim16"), avg("8way")
	msg := fmt.Sprintf("B-Cache %.1f%%, 8way %.1f%%, victim16 %.1f%%", 100*bc, 100*w8, 100*v)
	return msg, bc >= w8*0.95 && bc-v > 0.20, nil
}

func checkTable1(Opts, results) (string, bool, error) {
	rows := timing.Table1(6)
	minSlack := rows[0].Slack
	for _, r := range rows {
		if r.Slack < minSlack {
			minSlack = r.Slack
		}
	}
	return fmt.Sprintf("min slack %.3f ns across %d decoder sizes", minSlack, len(rows)), minSlack >= 0, nil
}

func checkTable2(opts Opts, _ results) (string, bool, error) {
	base, err := area.Baseline(opts.L1Size, opts.LineBytes)
	if err != nil {
		return "", false, err
	}
	bc, err := area.BCache(paperBCacheConfig(opts))
	if err != nil {
		return "", false, err
	}
	w4, err := area.SetAssoc(opts.L1Size, opts.LineBytes, 4)
	if err != nil {
		return "", false, err
	}
	ob, o4 := bc.OverheadVs(base), w4.OverheadVs(base)
	msg := fmt.Sprintf("B-Cache +%.1f%%, 4-way +%.1f%%", 100*ob, 100*o4)
	return msg, ob > 0.035 && ob < 0.05 && ob < o4, nil
}

func checkTable3(Opts, results) (string, bool, error) {
	p := energy.Defaults()
	r := p.PerAccess(energy.BCache)/p.PerAccess(energy.DirectMapped) - 1
	below8 := 1 - p.PerAccess(energy.BCache)/p.PerAccess(energy.Way8)
	msg := fmt.Sprintf("B-Cache +%.1f%% vs baseline, −%.1f%% vs 8-way", 100*r, 100*below8)
	return msg, r > 0.10 && r < 0.11 && below8 > 0.6, nil
}

func checkTable5(opts Opts, res results) (string, bool, error) {
	red, _, err := designSpace(opts, res)
	if err != nil {
		return "", false, err
	}
	msg := fmt.Sprintf("PD=5: B %.1f%% vs A %.1f%%; PD=6: A %.1f%% vs B %.1f%%",
		100*red[4][8], 100*red[8][4], 100*red[8][8], 100*red[4][16])
	return msg, red[4][8] > red[8][4] && red[8][8] > red[4][16], nil
}

func checkTable7(opts Opts, res results) (string, bool, error) {
	tables, err := registry["table7"].Render(opts, res)
	if err != nil {
		return "", false, err
	}
	rows := tables[0].Rows
	dm, bc := rows[len(rows)-2], rows[len(rows)-1]
	var dmCH, bcCH, dmLAS, bcLAS float64
	if _, err := fmt.Sscanf(strings.TrimSuffix(dm[3], "%"), "%g", &dmCH); err != nil {
		return "", false, err
	}
	if _, err := fmt.Sscanf(strings.TrimSuffix(bc[3], "%"), "%g", &bcCH); err != nil {
		return "", false, err
	}
	if _, err := fmt.Sscanf(strings.TrimSuffix(dm[6], "%"), "%g", &dmLAS); err != nil {
		return "", false, err
	}
	if _, err := fmt.Sscanf(strings.TrimSuffix(bc[6], "%"), "%g", &bcLAS); err != nil {
		return "", false, err
	}
	msg := fmt.Sprintf("hit concentration %.1f%%→%.1f%%, idle sets %.1f%%→%.1f%%", dmCH, bcCH, dmLAS, bcLAS)
	return msg, bcCH < dmCH && bcLAS < dmLAS, nil
}

func check3C(opts Opts, res results) (string, bool, error) {
	runs, err := equake3CGrid(opts).collect(res)
	if err != nil {
		return "", false, err
	}
	cDM, cBC := runs[0][0], runs[0][1]
	msg := fmt.Sprintf("equake conflicts %d→%d, compulsory %d→%d",
		cDM.Conflict, cBC.Conflict, cDM.Compulsory, cBC.Compulsory)
	return msg, cBC.Conflict*2 < cDM.Conflict && cBC.Compulsory == cDM.Compulsory, nil
}
