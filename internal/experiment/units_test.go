package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
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
	ResetUnitMemo()
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
			for _, key := range u.keys {
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
				got, err := u.decode(rawJSON(v))
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
			ResetUnitMemo()
			want := runCSV(t, id, opts)

			ResetUnitMemo()
			path := filepath.Join(t.TempDir(), "cp.json")
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
			if err := cp.Save(); err != nil {
				t.Fatal(err)
			}
			ResetStop()

			for round, fresh := range []string{"half", "complete"} {
				ResetUnitMemo()
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
				if builds := TraceCacheStats().Misses; round == 1 && builds != 0 {
					t.Errorf("resume from a complete checkpoint built %d traces", builds)
				}
				if err := cp2.Save(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFig9AfterFig8SimulatesNothing: fig8 and fig9 render the same timed
// units, so fig9 run after fig8 takes every result from the memo and
// touches no trace.
func TestFig9AfterFig8SimulatesNothing(t *testing.T) {
	ResetUnitMemo()
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Instructions = 40_000
	runCSV(t, "fig8", opts)
	before := TraceCacheStats()
	runCSV(t, "fig9", opts)
	if after := TraceCacheStats(); after.Hits != before.Hits || after.Misses != before.Misses ||
		after.Generations != before.Generations {
		t.Fatalf("fig9 after fig8 touched traces: before %+v, after %+v", before, after)
	}
}

// TestPlanWorkerHoldsOneRecordTrace: a worker executes planned groups
// outside the scheduler, in plan order or jumping between the ends of
// the plan as leases arrive. Each group is one pass whose chunk buffers
// go with it: nothing is resident between groups, and the resident
// high-water mark is one pass's buffers.
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
		if _, err := plan.Execute(g); err != nil {
			t.Fatal(err)
		}
		if c := TraceCacheStats(); c.Bytes != 0 || c.PeakBytes != passBytes(0) {
			t.Fatalf("after group %d: %d bytes resident, peak %d", g, c.Bytes, c.PeakBytes)
		}
	}
}
