package experiment

import (
	"fmt"
	"strings"
	"testing"

	"bcache/internal/workload"
)

// tinyOpts keeps experiment self-tests fast; the shapes asserted here are
// robust even at this scale.
func tinyOpts() Opts {
	o := DefaultOpts()
	o.Instructions = 120_000
	return o
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fault",
		"fig3", "fig4", "fig5", "fig8", "fig9", "fig12",
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"x3c", "xdrowsy", "xl2", "xline", "xprefetch", "xrecolor", "xrelated", "xvipt", "xwindow",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("experiment %s not registered: %v", id, err)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	// Ordering: figures before tables, numeric within.
	ids := make([]string, 0, len(want))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	for i, id := range []string{"fault", "fig3", "fig4", "fig5", "fig8", "fig9", "fig12", "table1"} {
		if ids[i] != id {
			t.Fatalf("ordering: got %v", ids)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Note: "n", Headers: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	out := tb.Render()
	for _, want := range []string{"== x: T ==", "(n)", "a", "bb", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRowWidthChecked(t *testing.T) {
	tb := &Table{ID: "x", Headers: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("short row accepted")
		}
	}()
	tb.AddRow("only-one")
}

func TestOptsValidate(t *testing.T) {
	o := DefaultOpts()
	o.Instructions = 0
	if err := o.validate(); err == nil {
		t.Fatal("zero instructions accepted")
	}
}

func TestAnalyticExperiments(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

// TestFig3Shape: the MF sweep must show the wupwise signature — the PD
// hit rate during misses collapses between MF=32 and MF=64 and the miss
// rate improves across the sweep.
func TestFig3Shape(t *testing.T) {
	e, _ := ByID("fig3")
	tables, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 9 {
		t.Fatalf("fig3 has %d rows, want 9 (MF=2..512)", len(rows))
	}
	parse := func(s string) float64 {
		var v float64
		if _, err := fmtSscan(s, &v); err != nil {
			t.Fatalf("bad cell %q: %v", s, err)
		}
		return v
	}
	pd32 := parse(rows[4][2]) // MF32 pd-hit-rate
	pd64 := parse(rows[5][2]) // MF64
	if pd32 < 40 || pd64 > 20 {
		t.Errorf("PD hit rate cliff missing: MF32=%.1f%%, MF64=%.1f%%", pd32, pd64)
	}
	if first, last := parse(rows[0][1]), parse(rows[8][1]); last >= first {
		t.Errorf("miss rate did not improve across the sweep: %.1f%% -> %.1f%%", first, last)
	}
}

// TestMissRateOrdering checks the headline Figure 4/5 relations on a
// reduced benchmark set: B-Cache MF8 beats MF2, beats the victim buffer
// on conflict-heavy benchmarks, and stays between the DM baseline and the
// 8-way cache.
func TestMissRateOrdering(t *testing.T) {
	var profiles []*workload.Profile
	for _, name := range []string{"equake", "crafty", "gcc"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	res, err := missRates(sweep{tinyOpts(), profiles, figureSpecs(), dSide})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		row := res[p.Name]
		base := row["baseline"]
		r2 := reduction(base, row["MF2"])
		r8 := reduction(base, row["MF8"])
		w8 := reduction(base, row["8way"])
		if r8 <= r2 {
			t.Errorf("%s: MF8 (%.3f) not better than MF2 (%.3f)", p.Name, r8, r2)
		}
		if r8 > w8+0.05 {
			t.Errorf("%s: B-Cache MF8 (%.3f) beats 8-way (%.3f) by more than noise", p.Name, r8, w8)
		}
		if r8 <= 0 {
			t.Errorf("%s: B-Cache shows no reduction", p.Name)
		}
	}
}

// TestTable56Crossover: at equal PD length the paper's §6.3 trade-off —
// design B (BAS=4) wins below 6 PD bits, design A (BAS=8) wins at 6.
func TestTable56Crossover(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweep is slow")
	}
	opts := tinyOpts()
	res, err := runUnits(opts, designSweep(opts).units())
	if err != nil {
		t.Fatal(err)
	}
	red, pd, err := designSpace(opts, res)
	if err != nil {
		t.Fatal(err)
	}
	// PD=5 bits: A is MF4/BAS8, B is MF8/BAS4.
	if red[4][8] <= red[8][4] {
		t.Errorf("PD=5: design B (%.3f) did not beat design A (%.3f)", red[4][8], red[8][4])
	}
	// PD=6 bits: A is MF8/BAS8, B is MF16/BAS4.
	if red[8][8] <= red[4][16] {
		t.Errorf("PD=6: design A (%.3f) did not beat design B (%.3f)", red[8][8], red[4][16])
	}
	// PD hit rate falls with MF for both designs (Table 6).
	for _, bas := range []int{4, 8} {
		if !(pd[bas][2] > pd[bas][8]) {
			t.Errorf("BAS=%d: PD hit rate not decreasing with MF: %v", bas, pd[bas])
		}
	}
}

// fmtSscan adapts fmt.Sscanf for percentage cells like "12.3%".
func fmtSscan(s string, v *float64) (int, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	return sscan(s, v)
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%g", v)
}

// TestExtensionExperiments runs each x* experiment at a small scale and
// checks the headline shape it exists to demonstrate.
func TestExtensionExperiments(t *testing.T) {
	opts := tinyOpts()

	t.Run("xdrowsy", func(t *testing.T) {
		e, _ := ByID("xdrowsy")
		tables, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(tables[0].Rows) == 0 {
			t.Fatal("no rows")
		}
	})

	t.Run("xvipt-colored-matches-physical", func(t *testing.T) {
		e, _ := ByID("xvipt")
		tables, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tables[0].Rows {
			if row[1] != row[2] {
				t.Errorf("%s: VIPT+coloring (%s) diverges from physical (%s)", row[0], row[2], row[1])
			}
		}
	})

	t.Run("xrecolor-beats-plain-dm", func(t *testing.T) {
		e, _ := ByID("xrecolor")
		tables, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tables[0].Rows {
			var dm, rc float64
			if _, err := fmtSscan(row[1], &dm); err != nil {
				t.Fatal(err)
			}
			if _, err := fmtSscan(row[2], &rc); err != nil {
				t.Fatal(err)
			}
			if rc > dm {
				t.Errorf("%s: recoloring (%.1f%%) worse than plain DM (%.1f%%)", row[0], rc, dm)
			}
		}
	})

	t.Run("xrelated-bcache-single-cycle", func(t *testing.T) {
		e, _ := ByID("xrelated")
		tables, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tables[0].Rows {
			if row[0] == "MF8" && row[2] != "1.000" {
				t.Errorf("B-Cache mean hit latency %s, want 1.000", row[2])
			}
		}
	})
}

func TestWriteCSV(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Headers: []string{"a", "b"}}
	tb.AddRow("1", "2,3") // comma must be quoted
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# x", "a,b", `"2,3"`} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

// TestAllExperimentsSmoke runs every registered experiment end to end at
// a small scale: no errors, non-empty tables, full column coverage.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	opts := tinyOpts()
	opts.Instructions = 60_000
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Headers) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("table %s empty", tb.ID)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) {
						t.Fatalf("table %s row width %d != headers %d", tb.ID, len(row), len(tb.Headers))
					}
				}
				if tb.Render() == "" {
					t.Fatal("empty render")
				}
			}
		})
	}
}

// TestExperimentDeterminism: rendering the same experiment twice must be
// byte-identical (no map-order or scheduling leakage into results).
func TestExperimentDeterminism(t *testing.T) {
	opts := tinyOpts()
	opts.Workers = 4
	e, _ := ByID("fig4")
	render := func() string {
		ResetUnitMemo() // compare two simulations, not one with its memo
		tables, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range tables {
			b.WriteString(tb.Render())
		}
		return b.String()
	}
	if render() != render() {
		t.Fatal("fig4 output not deterministic across runs")
	}
}

// TestVerifyChecklist runs the full reproduction checklist at reduced
// scale: every check must pass (these are the claims EXPERIMENTS.md
// records).
func TestVerifyChecklist(t *testing.T) {
	if testing.Short() {
		t.Skip("checklist is slow")
	}
	opts := tinyOpts()
	var buf strings.Builder
	passed, failed, err := Verify(opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if failed > 0 {
		t.Fatalf("%d/%d reproduction checks failed:\n%s", failed, passed+failed, buf.String())
	}
	if passed != len(Checks()) {
		t.Fatalf("passed %d of %d checks", passed, len(Checks()))
	}
}

// TestMultiSeedRuns: seed replication must stay deterministic and not
// change the headline ordering.
func TestMultiSeedRuns(t *testing.T) {
	opts := tinyOpts()
	opts.Seeds = 3
	p, err := workload.ByName("equake")
	if err != nil {
		t.Fatal(err)
	}
	run := func() map[string]map[string]missRun {
		res, err := missRates(sweep{opts, []*workload.Profile{p}, figureSpecs(), dSide})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	for spec, v1 := range r1["equake"] {
		if v2 := r2["equake"][spec]; v1 != v2 {
			t.Fatalf("multi-seed run nondeterministic for %s: %+v vs %+v", spec, v1, v2)
		}
	}
	row := r1["equake"]
	if reduction(row["baseline"], row["MF8"]) <= 0 {
		t.Fatal("B-Cache shows no reduction under seed replication")
	}
	// 3 seeds triple the access volume vs a single-seed run.
	opts1 := opts
	opts1.Seeds = 1
	res1, err := missRates(sweep{opts1, []*workload.Profile{p}, nil, dSide})
	if err != nil {
		t.Fatal(err)
	}
	if row["baseline"].accesses <= res1["equake"]["baseline"].accesses*2 {
		t.Fatal("seed replication did not accumulate accesses")
	}
}

// TestWithSeedDoesNotMutate: the canonical profile must never change.
func TestWithSeedDoesNotMutate(t *testing.T) {
	p, _ := workload.ByName("gcc")
	orig := p.Seed
	q := withSeed(p, 2)
	if p.Seed != orig {
		t.Fatal("withSeed mutated the canonical profile")
	}
	if q.Seed == orig {
		t.Fatal("withSeed did not shift the replica seed")
	}
	if withSeed(p, 0) != p {
		t.Fatal("replica 0 should be the canonical profile itself")
	}
}

// missRates runs one sweep on its own and returns its rates: the
// profiles whose units all completed, alongside any run error.
func missRates(sw sweep) (missResults, error) {
	if err := sw.opts.validate(); err != nil {
		return nil, err
	}
	res, err := runUnits(sw.opts, sw.units())
	out, rerr := sw.rates(res)
	if err == nil {
		err = rerr
	}
	return out, err
}
