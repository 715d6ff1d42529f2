package experiment

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"bcache/internal/energy"
	"bcache/internal/workload"
)

// tinyPlanOpts is the smallest scale the campaign planner and scheduler
// both accept, with an in-memory checkpoint attached.
func tinyPlanOpts() Opts {
	opts := DefaultOpts()
	opts.Instructions = 60_000
	opts.Checkpoint = NewCheckpoint("")
	return opts
}

// TestMissRatesCheckpointsEveryProfiledSpec is the regression test for a
// bug where the profiling job built its checkpoint keys in the same loop
// that breaks on the first cache miss: on a fresh checkpoint the later
// LRU specs were recorded under the empty key, silently dropping them
// from resumes and desynchronizing the sequential checkpoint from the
// distributed plan's.
func TestMissRatesCheckpointsEveryProfiledSpec(t *testing.T) {
	opts := tinyPlanOpts()
	profiles := reportedICacheProfiles()[:1]
	all := append([]Spec{baselineSpec()}, figureSpecs()...)
	lru, _ := lruSpecIndices(opts, all)
	if len(lru) < 2 {
		t.Fatalf("test needs >= 2 profileable specs, have %d", len(lru))
	}
	// An LRU spec wider than the profiler tracks replays instead.
	wide := append(slices.Clone(all), setAssocSpec(128, energy.Way32))
	if _, replayed := lruSpecIndices(opts, wide); !slices.Contains(replayed, len(all)) {
		t.Errorf("a 128-way LRU spec at %d kB is not replayed (replayed %v)", opts.L1Size/1024, replayed)
	}
	if _, err := missRates(sweep{opts, profiles, figureSpecs(), iSide}); err != nil {
		t.Fatal(err)
	}
	cp := opts.Checkpoint
	if _, ok := cp.Lookup(""); ok {
		t.Error("checkpoint holds a unit under the empty key")
	}
	for _, si := range lru {
		key := unitKey(opts, iSide, all[si].Key, 0, profiles[0].Name)
		if _, ok := cp.Lookup(key); !ok {
			t.Errorf("profiled spec %s not checkpointed (key %s)", all[si].Name, key)
		}
	}
	if want := len(all) * len(profiles); cp.Len() != want {
		t.Errorf("checkpoint holds %d units, want %d", cp.Len(), want)
	}
}

// plannedKeys returns the distinct checkpoint keys plan commits.
func plannedKeys(plan *Plan) map[string]bool {
	keys := map[string]bool{}
	for i := 0; i < plan.Len(); i++ {
		for _, k := range plan.UnitKeys(i) {
			keys[k] = true
		}
	}
	return keys
}

// TestPlanCoversSequentialCheckpoint: after a sequential run of each
// experiment on a fresh checkpoint, the checkpoint must hold exactly the planned keys — the plan and the
// in-process scheduler execute the same units, which is what makes the
// distributed merge bit-identical.
func TestPlanCoversSequentialCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		id   string
		keys int
	}{
		{"fig4", 260}, {"fig5", 150}, {"fig12", 1066},
		{"table5", 234}, {"table6", 234}, {"xline", 312},
		{"fig3", 10}, {"fig8", 468}, {"table7", 52}, {"xrelated", 312}, {"fault", 120},
	} {
		t.Run(tc.id, func(t *testing.T) {
			opts := tinyPlanOpts()
			e, err := ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(opts); err != nil {
				t.Fatal(err)
			}
			planOpts := opts
			planOpts.Checkpoint = nil
			plan, err := PlanCampaign(planOpts, []string{tc.id})
			if err != nil {
				t.Fatal(err)
			}
			planned := plannedKeys(plan)
			if len(planned) != tc.keys {
				t.Errorf("plan commits %d keys, want %d", len(planned), tc.keys)
			}
			for i := 0; i < plan.Len(); i++ {
				if !plan.Done(i, opts.Checkpoint) {
					t.Errorf("planned group %d (keys %v) missing from the sequential checkpoint", i, plan.UnitKeys(i))
				}
			}
			if opts.Checkpoint.Len() != len(planned) {
				t.Errorf("checkpoint holds %d keys, plan commits %d — unit spaces differ",
					opts.Checkpoint.Len(), len(planned))
			}
		})
	}
}

// TestPlanCampaignKeepsNarrowerSweeps is the regression test for a plan
// that deduplicated jobs by unit key: a stack-distance job's unit key
// does not name the LRU specs it answers, so listing a narrower sweep
// first (xline's 4/8-way, table5's baseline-only profile) dropped the
// wider fig4 profile of the same trace and left its extra specs out of
// the distributed run.
func TestPlanCampaignKeepsNarrowerSweeps(t *testing.T) {
	opts := tinyPlanOpts()
	opts.Checkpoint = nil
	for _, tc := range []struct {
		ids  []string
		keys int
	}{
		{[]string{"xline", "fig4"}, 468},
		{[]string{"table5", "fig4"}, 364},
	} {
		plan, err := PlanCampaign(opts, tc.ids)
		if err != nil {
			t.Fatal(err)
		}
		union := map[string]bool{}
		for _, id := range tc.ids {
			single, err := PlanCampaign(opts, []string{id})
			if err != nil {
				t.Fatal(err)
			}
			for k := range plannedKeys(single) {
				union[k] = true
			}
		}
		got := plannedKeys(plan)
		if len(got) != len(union) || len(got) != tc.keys {
			t.Errorf("%v: plan commits %d keys, union of the experiments' plans %d, want %d",
				tc.ids, len(got), len(union), tc.keys)
		}
		for k := range union {
			if !got[k] {
				t.Errorf("%v: key %s (and maybe others) not planned", tc.ids, k)
				break
			}
		}
		seen := map[string]bool{}
		for _, u := range plan.units {
			key := strings.Join(u.keys, "+")
			if seen[key] {
				t.Errorf("%v: unit %s planned twice", tc.ids, key)
			}
			seen[key] = true
		}
	}
}

// TestPlanCampaignPinned pins the all-experiments plan: its size and
// its fingerprint are the coordinator-worker contract, so a refactor of
// the unit enumeration must leave them where they are. The key count
// counts a key once per unit committing it. The fingerprint
// is that of the trace-major order campaignUnits produces, grouped by
// trace. Every simulating experiment contributes units. The profile
// units answer every victim16 key, so fig12's victim16 replays are not
// planned, and the 16 kB seed-0 victim16 keys are committed twice: by
// the profile and by the timed victim16 unit (checkCommits compares
// them). Figure 3's MF ≤ 16 points are Figure 4's wupwise keys, each
// simulated by one unit.
func TestPlanCampaignPinned(t *testing.T) {
	opts := tinyPlanOpts()
	opts.Checkpoint = nil
	plan, err := PlanCampaign(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := 0
	for i := 0; i < plan.Len(); i++ {
		keys += len(plan.UnitKeys(i))
	}
	if plan.Len() != 26 || len(plan.units) != 1573 || keys != 2604 {
		t.Errorf("plan has %d groups of %d units committing %d keys, want 26, 1573 and 2604",
			plan.Len(), len(plan.units), keys)
	}
	if fp := plan.Fingerprint(); fp != 0x57ebba678328f1e6 {
		t.Errorf("plan fingerprint %#x, want 0x57ebba678328f1e6", fp)
	}
	committers := func(key string) []string {
		var by []string
		for _, u := range plan.units {
			if slices.Contains(u.keys, key) {
				by = append(by, u.label)
			}
		}
		return by
	}
	victim := fig4Sweep(opts).key(victimSpec(16), 0, "gcc")
	if by, want := committers(victim), []string{"gcc/lru-profile/seed0", "timed/gcc/victim16"}; !slices.Equal(by, want) {
		t.Errorf("%s is committed by %q, want %q", victim, by, want)
	}
	for _, mf := range []int{2, 4, 8, 16} {
		key := fig4Sweep(opts).key(bcacheSpec(mf, 8), 0, "wupwise")
		if by := committers(key); len(by) != 1 {
			t.Errorf("%s is committed by %q, want one unit", key, by)
		}
	}
	for _, u := range plan.units {
		if strings.HasPrefix(u.label, "fig3/") {
			t.Errorf("unit %s: Figure 3 is a sweep, whose labels name no experiment", u.label)
		}
	}
	simulating := 0
	for _, e := range All() {
		if e.Units == nil {
			continue
		}
		simulating++
		single, err := PlanCampaign(opts, []string{e.ID})
		if err != nil {
			t.Fatal(err)
		}
		if single.Len() == 0 {
			t.Errorf("%s declares units but plans none", e.ID)
		}
	}
	if simulating != 19 {
		t.Errorf("%d experiments declare units, want 19 (all but the four analytic tables)", simulating)
	}
}

// TestPlanCommitsEveryKey: every key an experiment reads (the keys of
// the units it declares) has a committing unit in the full plan and in
// the experiment's own plan, and which units the cover rule keeps does
// not depend on the order the experiments are declared in. In the full
// plan each (trace, side, line) has one stack-distance unit, answering
// every L1 size. Alone, fig4 still plans its MF8 replays and xrelated
// its own profile and MF8 units; the profile answers victim16, so
// neither replays it. Under DisableStackDist fig4 replays every LRU
// and victim spec, the profiler's oracle.
func TestPlanCommitsEveryKey(t *testing.T) {
	opts := tinyPlanOpts()
	opts.Checkpoint = nil
	plan := func(o Opts, ids []string) *Plan {
		t.Helper()
		p, err := PlanCampaign(o, ids)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	full := plan(opts, nil)
	fullKeys := plannedKeys(full)
	var ids []string
	for _, e := range All() {
		ids = append([]string{e.ID}, ids...)
		if e.Units == nil {
			continue
		}
		single := plannedKeys(plan(opts, []string{e.ID}))
		for _, u := range e.Units(opts) {
			for _, k := range u.keys {
				if !fullKeys[k] || !single[k] {
					t.Fatalf("%s reads %s: in the full plan %v, in its own %v", e.ID, k, fullKeys[k], single[k])
				}
			}
		}
	}

	// A unit's identity: its label and the keys it answers, in any order
	// (a merged profile lists its keys in the order they were declared).
	units := func(p *Plan) map[string]bool {
		out := map[string]bool{}
		for _, u := range p.units {
			keys := slices.Clone(u.keys)
			slices.Sort(keys)
			out[u.label+"="+strings.Join(keys, "+")] = true
		}
		return out
	}
	if fwd, rev := units(full), units(plan(opts, ids)); !reflect.DeepEqual(fwd, rev) {
		t.Errorf("the plan of the experiments in reverse order keeps other units: %d vs %d", len(rev), len(fwd))
	}

	type stream struct {
		trace traceKey
		side  side
		line  int
	}
	profiles := map[stream]int{}
	fig12, merged := fig12Sweeps(opts), 0
	for _, u := range full.units {
		if u.lru == nil {
			continue
		}
		s := stream{u.trace(), u.lru.side, u.lru.line}
		if profiles[s]++; profiles[s] > 1 {
			t.Errorf("%s: a second stack-distance unit on one stream", u.label)
		}
		for _, sw := range fig12 {
			if sw.side == u.lru.side && u.lru.line == opts.LineBytes && u.prof.Name == "gcc" {
				if k := sw.key(baselineSpec(), 0, "gcc"); !slices.Contains(u.keys, k) {
					t.Errorf("%s does not answer fig12's %s", u.label, k)
				}
				merged++
			}
		}
	}
	if merged < 2 {
		t.Errorf("gcc's D-side profile answered %d of fig12's two D-side sizes", merged)
	}

	labels := func(o Opts, id string) map[string]bool {
		out := map[string]bool{}
		for _, u := range plan(o, []string{id}).units {
			out[u.label] = true
		}
		return out
	}
	fig4, xrelated := labels(opts, "fig4"), labels(opts, "xrelated")
	replay := opts
	replay.DisableStackDist = true
	oracle := labels(replay, "fig4")
	for _, p := range workload.All() {
		for _, spec := range []string{profileSpecName, "MF8"} {
			l := p.Name + "/" + spec + "/seed0"
			if !fig4[l] || !xrelated[l] {
				t.Errorf("%s: planned by fig4 alone %v, by xrelated alone %v", l, fig4[l], xrelated[l])
			}
		}
		if l := p.Name + "/victim16/seed0"; fig4[l] || xrelated[l] {
			t.Errorf("%s: replayed by fig4 alone %v, by xrelated alone %v", l, fig4[l], xrelated[l])
		}
		if oracle[p.Name+"/"+profileSpecName+"/seed0"] {
			t.Errorf("%s: fig4 profiles under DisableStackDist", p.Name)
		}
		for _, spec := range []string{"baseline", "2way", "4way", "8way", "32way", "victim16", "MF8"} {
			if l := p.Name + "/" + spec + "/seed0"; !oracle[l] {
				t.Errorf("%s: not replayed under DisableStackDist", l)
			}
		}
	}
}
