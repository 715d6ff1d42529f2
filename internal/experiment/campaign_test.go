package experiment

import (
	"bytes"
	"strings"
	"testing"

	"bcache/internal/obs/tracespan"
)

// TestRunAllMatchesPerExperimentRuns is the differential test of the
// trace-major campaign. RunAll over all 23 experiments must render CSV
// byte-identical to running each experiment on its own in registry
// order, the execution order the campaign replaced. It must also run
// the generator once per distinct trace, leave nothing resident, and
// execute its units in the order PlanCampaign leases them.
func TestRunAllMatchesPerExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry twice")
	}
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Instructions = 60_000
	opts.Workers = 2

	ResetTraceCache()
	tel := NewTelemetry(1<<20, nil)
	SetTelemetry(tel)
	withCkpt := opts
	withCkpt.Checkpoint = NewCheckpoint("")
	outcomes := RunAll(withCkpt, All())
	SetTelemetry(nil)
	var campaign bytes.Buffer
	for i, out := range outcomes {
		if out.Err != nil {
			t.Fatalf("%s: %v", All()[i].ID, out.Err)
		}
		for _, tb := range out.Tables {
			if err := tb.WriteCSV(&campaign); err != nil {
				t.Fatal(err)
			}
		}
	}

	plan, err := PlanCampaign(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	traces := map[traceKey]bool{}
	for _, u := range plan.units {
		traces[u.trace()] = true
	}
	c := TraceCacheStats()
	if c.Generations != uint64(len(traces)) {
		t.Errorf("campaign ran the generator %d times for %d distinct traces", c.Generations, len(traces))
	}
	if c.Bytes != 0 {
		t.Errorf("%d trace bytes resident after RunAll returned", c.Bytes)
	}
	if j := tel.Journal(); j.Dropped() > 0 {
		t.Fatalf("journal dropped %d spans; raise its capacity", j.Dropped())
	}
	labels := make([]string, len(plan.units))
	for _, s := range tel.Journal().Snapshot() {
		if s.Kind == tracespan.KindUnit {
			if s.Unit >= len(labels) {
				t.Fatalf("unit index %d beyond the plan's %d units", s.Unit, len(plan.units))
			}
			labels[s.Unit] = s.Name
		}
	}
	for i, u := range plan.units {
		if labels[i] != u.label {
			t.Fatalf("RunAll ran unit %d as %q, PlanCampaign leases %q", i, labels[i], u.label)
		}
	}
	for g := 0; g < plan.Len(); g++ {
		if !plan.Done(g, withCkpt.Checkpoint) {
			t.Fatalf("RunAll committed no result for planned group %d (keys %v)", g, plan.UnitKeys(g))
		}
	}
	if got, keys := withCkpt.Checkpoint.Len(), len(plannedKeys(plan)); got != keys {
		t.Fatalf("RunAll committed %d keys, the plan %d", got, keys)
	}

	ResetTraceCache()
	var twin bytes.Buffer
	for _, e := range All() {
		twin.Write(runCSV(t, e.ID, opts))
	}
	if !bytes.Equal(campaign.Bytes(), twin.Bytes()) {
		t.Fatalf("RunAll CSV differs from per-experiment runs\ncampaign:\n%s\nper experiment:\n%s", campaign.Bytes(), twin.Bytes())
	}
}

// TestPlanExecuteGeneratesEachTraceOnce: a worker executing a plan
// group by group, as its leases arrive, runs the generator once per
// distinct trace, like RunAll: fig4's stream units and fig8's CPU-model
// units of one trace share its group's one pass, and nothing is left
// resident between passes.
func TestPlanExecuteGeneratesEachTraceOnce(t *testing.T) {
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Instructions = 60_000
	plan, err := PlanCampaign(opts, []string{"fig4", "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	ResetTraceCache()
	traces := map[traceKey]bool{}
	for _, u := range plan.units {
		traces[u.trace()] = true
	}
	if plan.Len() != len(traces) {
		t.Fatalf("plan has %d groups for %d distinct traces", plan.Len(), len(traces))
	}
	for g := 0; g < plan.Len(); g++ {
		recs, err := plan.Exec(g)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		if len(recs) != len(plan.UnitKeys(g)) {
			t.Fatalf("group %d: %d results for %d keys", g, len(recs), len(plan.UnitKeys(g)))
		}
		if c := TraceCacheStats(); c.Bytes != 0 {
			t.Fatalf("group %d left %d trace bytes resident", g, c.Bytes)
		}
	}
	if c := TraceCacheStats(); c.Generations != uint64(len(traces)) {
		t.Errorf("plan ran the generator %d times for %d distinct traces", c.Generations, len(traces))
	}
}

// TestCampaignUnitsTraceMajor: campaignUnits drops fig9's units, which
// commit only fig8's keys, and fig4's MF8 replays, whose keys fig8's
// timed MF8 units also commit (fig4's profile answers its victim16
// keys, so it declares no victim16 replay); it puts every unit of a
// trace in one consecutive run, in declared order.
func TestCampaignUnitsTraceMajor(t *testing.T) {
	opts := tinyOpts()
	var exps []Experiment
	declared := map[string]int{} // label -> position in the concatenated lists
	for _, id := range []string{"fig4", "fig8", "fig9"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
		for _, u := range e.Units(opts) {
			if _, ok := declared[u.label]; !ok {
				declared[u.label] = len(declared)
			}
		}
	}
	us := campaignUnits(opts, exps)
	answered := 0
	for _, u := range exps[0].Units(opts) {
		if strings.HasSuffix(u.label, "/victim16/seed0") {
			t.Fatalf("fig4 declares %s: its profile answers victim16", u.label)
		}
		if strings.HasSuffix(u.label, "/MF8/seed0") {
			answered++
		}
	}
	if want := len(exps[0].Units(opts)) + len(exps[1].Units(opts)) - answered; answered != 26 || len(us) != want {
		t.Fatalf("campaign has %d units, want fig4's and fig8's %d less fig4's %d MF8 replays",
			len(us), want, answered)
	}
	seen := map[traceKey]bool{}
	for i, u := range us {
		if u.owner != "fig4" && u.owner != "fig8" {
			t.Fatalf("unit %s owned by %q", u.label, u.owner)
		}
		if i == 0 || u.trace() != us[i-1].trace() {
			if seen[u.trace()] {
				t.Fatalf("the units of %s's trace are split across two runs", u.label)
			}
			seen[u.trace()] = true
		} else if declared[u.label] < declared[us[i-1].label] {
			t.Fatalf("%s runs after %s, against declared order", u.label, us[i-1].label)
		}
	}
}
