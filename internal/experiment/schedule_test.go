package experiment

import (
	"errors"
	"fmt"
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
	err := runUnitsCtl(n, 4, unitOpts{}, func(i int) (func(), error) {
		if i%5 == 0 {
			return nil, fmt.Errorf("unit %d failed", i)
		}
		return func() { committed[i] = true }, nil
	})
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
	err := runUnitsCtl(8, 4, unitOpts{}, func(i int) (func(), error) {
		if i == 3 {
			panic("boom in unit 3")
		}
		return func() { ok.Add(1) }, nil
	})
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

// TestPlanExecutePanicIsUnitError: a worker's Plan.Execute has the
// scheduler's crash boundary, so a panicking unit becomes an error the
// worker reports, the plan's lock is released, and later units run.
func TestPlanExecutePanicIsUnitError(t *testing.T) {
	prof := &workload.Profile{Name: "panicky"}
	plan := &Plan{units: []unit{
		newUnit(DefaultOpts(), prof, "boom", []string{"boom"}, func() ([]int, error) { panic("boom in a planned unit") }),
		newUnit(DefaultOpts(), prof, "fine", []string{"fine"}, func() ([]int, error) { return []int{7}, nil }),
	}, records: map[traceKey]bool{}, last: -1}
	if _, err := plan.Execute(0); !errors.Is(err, errUnitPanic) || !strings.Contains(err.Error(), "boom in a planned unit") {
		t.Fatalf("Execute(panicking unit) = %v, want an error wrapping errUnitPanic", err)
	}
	vals, err := plan.Execute(1)
	if err != nil || len(vals) != 1 || string(vals[0]) != "7" {
		t.Fatalf("Execute after a panic = %s, %v; want [7]", vals, err)
	}
}

func TestRunUnitsTransientRetry(t *testing.T) {
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 3, Backoff: time.Millisecond}, func(i int) (func(), error) {
		if attempts.Add(1) < 3 {
			return nil, fmt.Errorf("flaky: %w", ErrTransient)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatalf("unit should succeed on third attempt: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("got %d attempts, want 3", got)
	}
}

func TestRunUnitsRetriesExhausted(t *testing.T) {
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 2, Backoff: time.Millisecond}, func(i int) (func(), error) {
		attempts.Add(1)
		return nil, fmt.Errorf("always down: %w", ErrTransient)
	})
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient after exhausting retries, got %v", err)
	}
	if got := attempts.Load(); got != 3 { // initial + 2 retries
		t.Errorf("got %d attempts, want 3", got)
	}
}

func TestRunUnitsNonRetryableFailsFast(t *testing.T) {
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 5, Backoff: time.Millisecond}, func(i int) (func(), error) {
		attempts.Add(1)
		return nil, errors.New("permanent")
	})
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
	err := runUnitsCtl(1, 1, unitOpts{Timeout: 20 * time.Millisecond}, func(i int) (func(), error) {
		<-release // outlives the deadline
		return func() { committed.Store(true) }, nil
	})
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
		err := runUnitsCtl(n, 2, unitOpts{Groups: fixedGroups(n, group)}, func(i int) (func(), error) {
			if done.Add(1) == 4 {
				RequestStop()
			}
			time.Sleep(time.Millisecond)
			return nil, nil
		})
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
	err := runUnitsCtl(4*group, 2, unitOpts{Groups: fixedGroups(4*group, group)}, func(i int) (func(), error) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	if first[0]/group == first[1]/group {
		t.Fatalf("first two claims %v share group %d", first, first[0]/group)
	}
}

func TestRunUnitsErrorCapElides(t *testing.T) {
	const n = maxJoinedErrors + 10
	err := runUnitsCtl(n, 4, unitOpts{}, func(i int) (func(), error) {
		return nil, fmt.Errorf("unit %d failed", i)
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "further unit failures elided") {
		t.Errorf("cap note missing from: %v", err)
	}
}

// TestRunUnitsGroupDone: the group-completion hook fires exactly once per
// group, only after every unit of the group has returned, whoever ran
// those units and however they ended; a group a stop request left
// unfinished never fires.
func TestRunUnitsGroupDone(t *testing.T) {
	defer ResetStop()
	release := make(chan struct{})
	defer close(release)
	once := func(int) int { return 1 }
	for _, tc := range []struct {
		name              string
		n, group, workers int
		o                 unitOpts
		// unit runs attempt k (from 0) of unit i; claims counts the
		// units claimed so far, this one included.
		unit func(i, k, claims int) error
		// attempts is how many attempts of unit i run to completion
		// (an attempt abandoned past its deadline does not).
		attempts func(i int) int
	}{
		{name: "ragged last group", n: 10, group: 4, workers: 2,
			unit: func(i, k, claims int) error { return nil }, attempts: once},
		{name: "two workers finish one group", n: 4, group: 4, workers: 2,
			unit: func() func(i, k, claims int) error {
				var tail sync.WaitGroup
				tail.Add(2)
				return func(i, k, claims int) error {
					if claims > 2 {
						// The last two units are in flight at once, so
						// the two workers each return one of them.
						tail.Done()
						tail.Wait()
					}
					return nil
				}
			}(), attempts: once},
		{name: "panicking unit", n: 6, group: 3, workers: 2,
			unit: func(i, k, claims int) error {
				if i == 1 {
					panic("boom")
				}
				return nil
			}, attempts: once},
		{name: "transient retry", n: 6, group: 3, workers: 2,
			o: unitOpts{Retries: 1, Backoff: time.Millisecond},
			unit: func(i, k, claims int) error {
				if i == 4 && k == 0 {
					return fmt.Errorf("flaky: %w", ErrTransient)
				}
				return nil
			}, attempts: func(i int) int { return 1 + btoi(i == 4) }},
		{name: "timeout retry", n: 6, group: 3, workers: 2,
			o: unitOpts{Retries: 1, Backoff: time.Millisecond, Timeout: 20 * time.Millisecond},
			unit: func(i, k, claims int) error {
				if i == 2 && k == 0 {
					<-release // abandoned; the retry completes the group
				}
				return nil
			}, attempts: once},
		{name: "stop request", n: 32, group: 4, workers: 2,
			unit: func(i, k, claims int) error {
				if claims == 3 {
					RequestStop()
				}
				time.Sleep(time.Millisecond)
				return nil
			}, attempts: once},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ResetStop()
			var (
				mu     sync.Mutex
				claims int
				tries  = make([]int, tc.n)
				ended  = make([]int, tc.n)
				fired  = make([]int, (tc.n+tc.group-1)/tc.group)
			)
			units := func(g int) (lo, hi int) { return g * tc.group, min((g+1)*tc.group, tc.n) }
			o := tc.o
			o.Groups = fixedGroups(tc.n, tc.group)
			o.GroupDone = func(g int) {
				mu.Lock()
				defer mu.Unlock()
				fired[g]++
				lo, hi := units(g)
				for i := lo; i < hi; i++ {
					if ended[i] != tc.attempts(i) {
						t.Errorf("group %d fired with unit %d at %d of %d attempts", g, i, ended[i], tc.attempts(i))
					}
				}
			}
			runUnitsCtl(tc.n, tc.workers, o, func(i int) (func(), error) {
				mu.Lock()
				k := tries[i]
				tries[i]++
				if k == 0 {
					claims++
				}
				c := claims
				mu.Unlock()
				defer func() {
					mu.Lock()
					ended[i]++
					mu.Unlock()
				}()
				return nil, tc.unit(i, k, c)
			})
			mu.Lock()
			defer mu.Unlock()
			unclaimed := 0
			for g := range fired {
				lo, hi := units(g)
				complete := true
				for i := lo; i < hi; i++ {
					complete = complete && ended[i] == tc.attempts(i)
					if tries[i] == 0 && i == lo {
						unclaimed++
					}
				}
				if want := btoi(complete); fired[g] != want {
					t.Errorf("group %d fired %d times, want %d", g, fired[g], want)
				}
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
