package experiment

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
		err := runUnitsCtl(n, 2, unitOpts{Group: group}, func(i int) (func(), error) {
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
	err := runUnitsCtl(4*group, 2, unitOpts{Group: group}, func(i int) (func(), error) {
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
