package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bcache/internal/workload"
)

// rawJSON encodes v for a checkpoint record.
func rawJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// fixedGroups returns unitOpts.Groups for n units in groups of size
// (size ≤ 1: one unit per group).
func fixedGroups(n, size int) []int {
	if size <= 1 {
		return nil
	}
	var starts []int
	for i := 0; i < n; i += size {
		starts = append(starts, i)
	}
	return starts
}

// TestUnitResultsRoundTrip: every unit result of every experiment
// survives a checkpoint's JSON encode/decode unchanged, so a resume
// renders exactly what a fresh run would; no experiment declares a key
// twice; and experiments that share a key share its result type. The
// results come from one campaign over the whole registry.
func TestUnitResultsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	opts := tinyOpts()
	opts.Instructions = 60_000
	res, err := runUnits(opts, campaignUnits(opts, All()))
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]reflect.Type{}
	for _, e := range All() {
		if e.Units == nil {
			continue
		}
		us := e.Units(opts)
		seen := map[string]bool{}
		for _, u := range us {
			for x, key := range u.keys {
				if seen[key] {
					t.Errorf("%s: key %s declared twice", e.ID, key)
				}
				seen[key] = true
				v, ok := res[key]
				if !ok {
					t.Fatalf("%s: no result for %s", e.ID, key)
				}
				if prev, ok := types[key]; ok && prev != reflect.TypeOf(v) {
					t.Errorf("%s: key %s holds %v here and %v elsewhere", e.ID, key, reflect.TypeOf(v), prev)
				}
				types[key] = reflect.TypeOf(v)
				got, err := u.decode(x, rawJSON(v))
				if err != nil {
					t.Fatalf("%s: decode %s: %v", e.ID, key, err)
				}
				if !reflect.DeepEqual(got, v) {
					t.Errorf("%s: %s round-trips as %+v, want %+v", e.ID, key, got, v)
				}
			}
		}
	}
}

// TestResumeBitIdentical interrupts each experiment after about half of
// its records, resumes from the saved file, and requires CSV identical
// to an uninterrupted run; a second resume from the now complete
// checkpoint must build no trace at all.
func TestResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five experiments three times each")
	}
	defer ResetStop()
	defer ResetTraceCache()
	for _, id := range []string{"fig4", "fig8", "table7", "xrelated", "fault"} {
		t.Run(id, func(t *testing.T) {
			opts := tinyOpts()
			opts.Instructions = 40_000
			opts.Workers = 1 // a deterministic interruption point
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			keys := 0
			for _, u := range e.Units(opts) {
				keys += len(u.keys)
			}
			want := runCSV(t, id, opts)

			path := filepath.Join(t.TempDir(), "cp.log")
			cp := NewCheckpoint(path)
			cp.SetAfterRecord(func(total int) {
				if total >= keys/2 {
					RequestStop()
				}
			})
			o1 := opts
			o1.Checkpoint = cp
			if _, err := e.Run(o1); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			if cp.Len() < keys/2 || cp.Len() >= keys {
				t.Fatalf("interrupted run recorded %d of %d keys", cp.Len(), keys)
			}
			if err := cp.Close(); err != nil {
				t.Fatal(err)
			}
			ResetStop()

			for round, fresh := range []string{"half", "complete"} {
				ResetTraceCache()
				cp2, err := LoadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				o2 := opts
				o2.Checkpoint = cp2
				if got := runCSV(t, id, o2); !bytes.Equal(got, want) {
					t.Fatalf("resume from the %s checkpoint: CSV differs\ngot:  %s\nwant: %s", fresh, got, want)
				}
				if cp2.Len() != keys {
					t.Fatalf("resumed checkpoint holds %d of %d keys", cp2.Len(), keys)
				}
				if builds := TraceCacheStats().Generations; round == 1 && builds != 0 {
					t.Errorf("resume from a complete checkpoint built %d traces", builds)
				}
				if err := cp2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFig9AfterFig8SimulatesNothing: fig8 and fig9 render the same
// timed units, so a campaign of the two keeps exactly fig8's units and
// generates each profile's trace once.
func TestFig9AfterFig8SimulatesNothing(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Instructions = 40_000
	var exps []Experiment
	for _, id := range []string{"fig8", "fig9"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	labels := func(us []unit) []string {
		var out []string
		for _, u := range us {
			out = append(out, u.owner+" "+u.label)
		}
		return out
	}
	us := campaignUnits(opts, exps)
	if got, want := labels(us), labels(campaignUnits(opts, exps[:1])); !reflect.DeepEqual(got, want) {
		t.Fatalf("fig8+fig9 keeps %d units, want fig8's %d:\n%v", len(got), len(want), got)
	}
	for _, out := range RunAll(opts, exps) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	if got, want := TraceCacheStats().Generations, uint64(len(workload.All())); got != want || len(groupStarts(us)) != int(want) {
		t.Fatalf("generated %d traces in %d groups, want %d: one per profile", got, len(groupStarts(us)), want)
	}
}

// TestPlanWorkerHoldsOneRecordTrace: a worker executes planned groups
// outside the scheduler, in plan order or jumping between the ends of
// the plan as leases arrive. Each group is one pass whose chunk buffers
// go with it: nothing is resident between groups, and the resident
// high-water mark is one framed pass's buffers.
func TestPlanWorkerHoldsOneRecordTrace(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Instructions = 20_000
	plan, err := PlanCampaign(opts, []string{"fig8", "xwindow", "table7"})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{0, 1, 2, plan.Len() - 1, 3, plan.Len() - 2} {
		if _, err := plan.Exec(g); err != nil {
			t.Fatal(err)
		}
		if c := TraceCacheStats(); c.Bytes != 0 || c.PeakBytes != framedPassBytes() {
			t.Fatalf("after group %d: %d bytes resident, peak %d", g, c.Bytes, c.PeakBytes)
		}
	}
}

// TestDoubleCommitMismatch: a result is a pure function of its key, so
// two units that answer one key must commit byte-identical JSON. A unit
// that disagrees with a result committed before it fails with an error
// naming both units — in its own group, in a worker's Plan.Exec, and
// against the checkpoint a resumed run restored — while one that agrees
// commits.
func TestDoubleCommitMismatch(t *testing.T) {
	opts := tinyOpts()
	opts.Instructions = 10_000
	p := workload.All()[0]
	mk := func(label string, misses uint64) unit {
		return newUnit(opts, p, label, []string{"shared", label}, dataStream, func() (engine[[]UnitResult], error) {
			return engine[[]UnitResult]{feed: func(*chunk) {}, results: func() ([]UnitResult, error) {
				return []UnitResult{{Misses: misses}, {}}, nil
			}}, nil
		})
	}
	names := func(err error, was, now string) bool {
		return err != nil && strings.Contains(err.Error(), "key shared: unit "+was+" committed") &&
			strings.Contains(err.Error(), "unit "+now+" computed")
	}
	us := []unit{mk("first", 1), mk("agrees", 1), mk("disagrees", 2)}
	res, err := runUnits(opts, us)
	if !names(err, "first", "disagrees") {
		t.Errorf("group with a disagreeing unit: error %v", err)
	}
	if _, ok := res["agrees"]; !ok {
		t.Error("the agreeing unit did not commit")
	}
	if _, ok := res["disagrees"]; ok {
		t.Error("the disagreeing unit committed")
	}
	plan := &Plan{units: us, starts: []int{0, len(us)}}
	if _, err := plan.Exec(0); !names(err, "first", "disagrees") {
		t.Errorf("Plan.Exec of a disagreeing group: error %v", err)
	}
	resumed := opts
	resumed.Checkpoint = NewCheckpoint("")
	resumed.Checkpoint.Record("shared", rawJSON(UnitResult{Misses: 4}))
	if _, err := runUnits(resumed, []unit{mk("resumed", 5)}); !names(err, "the checkpoint", "resumed") {
		t.Errorf("resumed unit disagreeing with the checkpoint: error %v", err)
	}
}
