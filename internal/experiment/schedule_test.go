package experiment

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcache/internal/workload"
)

// The scheduler's contract under failure: siblings of a failing unit
// still complete and commit, panics become errors with stacks, transient
// failures retry, deadlines abandon the unit without letting it commit,
// and a stop request drains the queue instead of finishing it.

func TestRunUnitsCollectsAllErrors(t *testing.T) {
	const n = 20
	var committed [n]bool
	err := runUnitsCtl(n, 4, unitOpts{}, each(func(i int) (func(), error) {
		if i%5 == 0 {
			return nil, fmt.Errorf("unit %d failed", i)
		}
		return func() { committed[i] = true }, nil
	}))
	if err == nil {
		t.Fatal("want joined error, got nil")
	}
	for i := 0; i < n; i += 5 {
		if !strings.Contains(err.Error(), fmt.Sprintf("unit %d failed", i)) {
			t.Errorf("error missing unit %d: %v", i, err)
		}
	}
	for i := range committed {
		if want := i%5 != 0; committed[i] != want {
			t.Errorf("unit %d committed=%v, want %v", i, committed[i], want)
		}
	}
}

func TestRunUnitsPanicIsolation(t *testing.T) {
	var ok atomic.Int32
	err := runUnitsCtl(8, 4, unitOpts{}, each(func(i int) (func(), error) {
		if i == 3 {
			panic("boom in unit 3")
		}
		return func() { ok.Add(1) }, nil
	}))
	if err == nil {
		t.Fatal("want error from panicking unit")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "boom in unit 3") {
		t.Errorf("panic not surfaced: %v", err)
	}
	// The stack trace names this test function.
	if !strings.Contains(err.Error(), "schedule_test") {
		t.Errorf("no stack trace in error: %v", err)
	}
	if got := ok.Load(); got != 7 {
		t.Errorf("%d siblings committed, want 7", got)
	}
}

// TestPlanExecutePanicIsUnitError: a worker's Plan.Exec has the
// scheduler's crash boundary, so a group with a panicking engine returns
// an error the worker reports, and the plan's later groups run.
func TestPlanExecutePanicIsUnitError(t *testing.T) {
	opts := tinyOpts()
	opts.Instructions = 1_000
	seven := func() (engine[[]int], error) {
		return engine[[]int]{feed: func(*chunk) {}, results: func() ([]int, error) { return []int{7}, nil }}, nil
	}
	boom, fine := workload.All()[0], workload.All()[1]
	us := []unit{
		newUnit(opts, boom, "boom", []string{"boom"}, dataStream, func() (engine[[]int], error) {
			panic("boom in a planned unit")
		}),
		newUnit(opts, boom, "sibling", []string{"sibling"}, dataStream, seven),
		newUnit(opts, fine, "fine", []string{"fine"}, dataStream, seven),
	}
	plan := &Plan{units: us, starts: append(groupStarts(us), len(us))}
	if _, err := plan.Exec(0); !errors.Is(err, errUnitPanic) || !strings.Contains(err.Error(), "boom in a planned unit") {
		t.Fatalf("Exec(panicking group) = %v, want an error wrapping errUnitPanic", err)
	}
	recs, err := plan.Exec(1)
	if err != nil || len(recs) != 1 || recs[0].Key != "fine" || string(recs[0].Val) != "7" {
		t.Fatalf("Exec after a panic = %+v, %v; want [fine: 7]", recs, err)
	}
}

func TestRunUnitsTransientRetry(t *testing.T) {
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 3, Backoff: time.Millisecond}, each(func(i int) (func(), error) {
		if attempts.Add(1) < 3 {
			return nil, fmt.Errorf("flaky: %w", ErrTransient)
		}
		return nil, nil
	}))
	if err != nil {
		t.Fatalf("unit should succeed on third attempt: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("got %d attempts, want 3", got)
	}
}

func TestRunUnitsRetriesExhausted(t *testing.T) {
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 2, Backoff: time.Millisecond}, each(func(i int) (func(), error) {
		attempts.Add(1)
		return nil, fmt.Errorf("always down: %w", ErrTransient)
	}))
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient after exhausting retries, got %v", err)
	}
	if got := attempts.Load(); got != 3 { // initial + 2 retries
		t.Errorf("got %d attempts, want 3", got)
	}
}

func TestRunUnitsNonRetryableFailsFast(t *testing.T) {
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 5, Backoff: time.Millisecond}, each(func(i int) (func(), error) {
		attempts.Add(1)
		return nil, errors.New("permanent")
	}))
	if err == nil {
		t.Fatal("want error")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("non-retryable error ran %d attempts, want 1", got)
	}
}

func TestRunUnitsTimeout(t *testing.T) {
	var committed atomic.Bool
	release := make(chan struct{})
	defer close(release)
	err := runUnitsCtl(1, 1, unitOpts{Timeout: 20 * time.Millisecond}, each(func(i int) (func(), error) {
		<-release // outlives the deadline
		return func() { committed.Store(true) }, nil
	}))
	if !errors.Is(err, ErrUnitTimeout) {
		t.Fatalf("want ErrUnitTimeout, got %v", err)
	}
	if committed.Load() {
		t.Error("abandoned unit's commit ran")
	}
}

// TestRunUnitsStopRequest: a stop request ends claiming, grouped or not,
// and every unit left unclaimed is drained from the queue-depth gauge —
// no more, no fewer.
func TestRunUnitsStopRequest(t *testing.T) {
	defer ResetStop()
	const n = 64
	for _, group := range []int{0, 8} {
		ResetStop()
		tel, _ := withTelemetry(t)
		var done atomic.Int32
		err := runUnitsCtl(n, 2, unitOpts{Groups: fixedGroups(n, group)}, each(func(i int) (func(), error) {
			if done.Add(1) == 4 {
				RequestStop()
			}
			time.Sleep(time.Millisecond)
			return nil, nil
		}))
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("group %d: want ErrInterrupted, got %v", group, err)
		}
		if got := done.Load(); got >= n {
			t.Errorf("group %d: all %d units ran despite stop request", group, got)
		}
		if depth := tel.queueDepth.Value(); depth != 0 {
			t.Errorf("group %d: queue depth %v after the run, want 0", group, depth)
		}
		if p := tel.ProgressSnapshot(); p.DoneUnits != uint64(done.Load()) {
			t.Errorf("group %d: %d units done, %d ran", group, p.DoneUnits, done.Load())
		}
	}
	if !Stopped() {
		t.Error("Stopped() false after RequestStop")
	}
	ResetStop()
	if Stopped() {
		t.Error("Stopped() true after ResetStop")
	}
}

// TestRunUnitsGroupsSpreadWorkers: two free workers start two different
// groups instead of both claiming units of the first one.
func TestRunUnitsGroupsSpreadWorkers(t *testing.T) {
	const group = 4
	var (
		mu      sync.Mutex
		first   []int
		barrier sync.WaitGroup
	)
	barrier.Add(2)
	err := runUnitsCtl(4*group, 2, unitOpts{Groups: fixedGroups(4*group, group)}, each(func(i int) (func(), error) {
		mu.Lock()
		hold := len(first) < 2
		if hold {
			first = append(first, i)
		}
		mu.Unlock()
		if hold {
			// Neither worker claims again until both hold a unit, so
			// these are the first two claims.
			barrier.Done()
			barrier.Wait()
		}
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if first[0]/group == first[1]/group {
		t.Fatalf("first two claims %v share group %d", first, first[0]/group)
	}
}

func TestRunUnitsErrorCapElides(t *testing.T) {
	const n = maxJoinedErrors + 10
	err := runUnitsCtl(n, 4, unitOpts{}, each(func(i int) (func(), error) {
		return nil, fmt.Errorf("unit %d failed", i)
	}))
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "further unit failures elided") {
		t.Errorf("cap note missing from: %v", err)
	}
}

// TestRunUnitsGroupDone: a claimed group is done in one call — run
// gets the whole group exactly once, on one worker — and a unit that
// must run again gets a call of its own afterwards, however the group's
// call ended: a unit panicking or failing transiently retries alone,
// and a call abandoned past its deadline retries each of its units
// alone. A group a stop request left unclaimed is never called.
func TestRunUnitsGroupDone(t *testing.T) {
	defer ResetStop()
	release := make(chan struct{})
	defer close(release)
	for _, tc := range []struct {
		name              string
		n, group, workers int
		o                 unitOpts
		// unit runs attempt k (from 0) of unit i; calls counts the
		// calls made so far, this one included.
		unit func(i, k, calls int) error
		// alone lists the units that get a call of their own.
		alone []int
	}{
		{name: "ragged last group", n: 10, group: 4, workers: 2,
			unit: func(i, k, calls int) error { return nil }},
		{name: "two workers finish one group", n: 4, group: 4, workers: 2,
			unit: func(i, k, calls int) error { return nil }},
		{name: "panicking unit", n: 6, group: 3, workers: 2,
			unit: func(i, k, calls int) error {
				if i == 1 {
					panic("boom")
				}
				return nil
			}},
		{name: "transient retry", n: 6, group: 3, workers: 2,
			o: unitOpts{Retries: 1, Backoff: time.Millisecond},
			unit: func(i, k, calls int) error {
				if i == 4 && k == 0 {
					return fmt.Errorf("flaky: %w", ErrTransient)
				}
				return nil
			}, alone: []int{4}},
		{name: "timeout retry", n: 6, group: 3, workers: 2,
			o: unitOpts{Retries: 1, Backoff: time.Millisecond, Timeout: 20 * time.Millisecond},
			unit: func(i, k, calls int) error {
				if i == 2 && k == 0 {
					<-release // abandons its group's call; each unit retries alone
				}
				return nil
			}, alone: []int{0, 1, 2}},
		{name: "stop request", n: 32, group: 4, workers: 2,
			unit: func(i, k, calls int) error {
				if calls == 3 {
					RequestStop()
				}
				time.Sleep(time.Millisecond)
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ResetStop()
			var (
				mu    sync.Mutex
				calls [][]int
				tries = make([]int, tc.n)
			)
			o := tc.o
			o.Groups = fixedGroups(tc.n, tc.group)
			runUnitsCtl(tc.n, tc.workers, o, func(ctx context.Context, idx []int) []outcome {
				mu.Lock()
				calls = append(calls, append([]int(nil), idx...))
				c := len(calls)
				mu.Unlock()
				return each(func(i int) (func(), error) {
					mu.Lock()
					k := tries[i]
					tries[i]++
					mu.Unlock()
					return nil, tc.unit(i, k, c)
				})(ctx, idx)
			})
			mu.Lock()
			defer mu.Unlock()
			whole := map[int]int{} // group -> calls with the whole group
			var alone []int
			for _, idx := range calls {
				lo := idx[0] / tc.group * tc.group
				hi := min(lo+tc.group, tc.n)
				switch {
				case len(idx) == hi-lo && idx[0] == lo && idx[len(idx)-1] == hi-1:
					whole[lo/tc.group]++
				case len(idx) == 1:
					alone = append(alone, idx[0])
				default:
					t.Errorf("call with units %v is neither a whole group nor one unit", idx)
				}
			}
			unclaimed := 0
			for g := 0; g*tc.group < tc.n; g++ {
				switch whole[g] {
				case 0:
					unclaimed++
				case 1:
				default:
					t.Errorf("group %d called whole %d times", g, whole[g])
				}
			}
			sort.Ints(alone)
			if !slices.Equal(alone, tc.alone) {
				t.Errorf("units called alone %v, want %v", alone, tc.alone)
			}
			if stopped := Stopped(); stopped != (unclaimed > 0) {
				t.Errorf("stop requested %v, but %d groups left unclaimed", stopped, unclaimed)
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// each adapts a per-unit fn to runUnitsCtl's call shape: a call runs its
// units one after another, each under its own panic boundary.
func each(fn func(i int) (func(), error)) func(context.Context, []int) []outcome {
	return func(_ context.Context, idx []int) []outcome {
		outs := make([]outcome, len(idx))
		for k, i := range idx {
			outs[k].err = func() (err error) {
				defer recovered(i, &err)
				outs[k].commit, err = fn(i)
				return err
			}()
		}
		return outs
	}
}
