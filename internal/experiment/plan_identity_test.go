package experiment

import (
	"strings"
	"testing"
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
	if _, err := missRates(sweep{opts, profiles, figureSpecs(), iSide}); err != nil {
		t.Fatal(err)
	}
	cp := opts.Checkpoint
	if _, ok := cp.Lookup(""); ok {
		t.Error("checkpoint holds a unit under the empty key")
	}
	for _, si := range lru {
		key := unitKey(opts, iSide, all[si].key(), 0, profiles[0].Name)
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
// experiment on a fresh checkpoint and a fresh unit memo, the
// checkpoint must hold exactly the planned keys — the plan and the
// in-process scheduler execute the same units, which is what makes the
// distributed merge bit-identical.
func TestPlanCoversSequentialCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		id   string
		keys int
	}{
		{"fig4", 260}, {"fig5", 150}, {"fig12", 1066},
		{"table5", 234}, {"table6", 234}, {"xline", 312},
		{"fig3", 9}, {"fig8", 156}, {"table7", 52}, {"xrelated", 312}, {"fault", 120},
	} {
		t.Run(tc.id, func(t *testing.T) {
			ResetUnitMemo()
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
// the unit enumeration must leave them where they are. The fingerprint
// is that of the trace-major order campaignUnits produces, grouped by
// trace. Every simulating experiment contributes units.
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
	if plan.Len() != 26 || len(plan.units) != 1985 || keys != 2499 {
		t.Errorf("plan has %d groups of %d units committing %d keys, want 26, 1985 and 2499",
			plan.Len(), len(plan.units), keys)
	}
	if fp := plan.Fingerprint(); fp != 0x9fadec133bb4812a {
		t.Errorf("plan fingerprint %#x, want 0x9fadec133bb4812a", fp)
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
