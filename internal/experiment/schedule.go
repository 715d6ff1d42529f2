package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bcache/internal/obs/tracespan"
)

// The scheduler is the suite's crash boundary. A multi-hour campaign must
// survive one misbehaving work unit — a panic in a cache model, a
// wedged simulation, a transient failure — without losing the hours of
// sibling results already computed. Workers claim whole groups of
// units (the units of one trace, which run as one pass), and every
// unit keeps its own outcome:
//
//   - Panic isolation: a panic becomes an error carrying the stack. The
//     pass recovers each engine's own panics, so one costs its unit
//     only; the scheduler's boundary around the whole call fails every
//     unit of it.
//   - Deadlines and retry: a call running longer than the unit timeout
//     × its unit count is abandoned (the orphaned goroutine can never
//     write shared state, because results are committed only via
//     closures the worker itself invokes on receipt). Each unit of it,
//     and each unit failing with ErrTransient, is retried alone with
//     exponential backoff.
//   - No cancel-on-first-error: workers keep draining the queue after a
//     failure, so one bad (benchmark, spec) pair costs one cell, not the
//     whole table. All errors come back via errors.Join alongside
//     whatever results completed.
//
// RequestStop (wired to SIGINT in the CLIs) is the one thing that stops
// claiming early: in-flight groups finish, the error includes
// ErrInterrupted, and completed units remain available for checkpointing.

var (
	// ErrTransient marks a unit failure worth retrying (wrap it:
	// fmt.Errorf("...: %w", ErrTransient)).
	ErrTransient = errors.New("transient failure")
	// ErrInterrupted is joined into the scheduler's error when a stop
	// request (RequestStop) cut the run short.
	ErrInterrupted = errors.New("experiment: interrupted")
	// ErrUnitTimeout marks a unit abandoned past its deadline.
	ErrUnitTimeout = errors.New("experiment: unit deadline exceeded")
)

// stopRequested is the process-wide graceful-stop latch.
var stopRequested atomic.Bool

// RequestStop asks all schedulers to stop claiming new work units.
// In-flight units finish and their results are committed; the active
// runs return ErrInterrupted (joined with any other errors).
func RequestStop() { stopRequested.Store(true) }

// ResetStop clears a previous stop request (tests and REPL-style
// drivers; a one-shot CLI exits instead).
func ResetStop() { stopRequested.Store(false) }

// Stopped reports whether a stop has been requested.
func Stopped() bool { return stopRequested.Load() }

// maxJoinedErrors bounds the error list a run returns; past it, failures
// are summarized by count so a systematically broken spec does not
// produce megabytes of joined errors.
const maxJoinedErrors = 16

// unitOpts bounds the scheduled work units.
type unitOpts struct {
	// Timeout abandons a call of run that takes longer than Timeout
	// times its unit count (0 = no deadline). The abandoned goroutine's
	// context is cancelled; its commit closures are never invoked.
	Timeout time.Duration
	// Retries re-runs a unit that timed out or failed with ErrTransient
	// up to this many additional times, alone.
	Retries int
	// Backoff is the first retry delay, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Clock sleeps retry backoffs (nil = wall clock). Tests inject
	// tracespan.FakeClock to pin exact schedules.
	Clock tracespan.Clock
	// Label names unit i for telemetry spans and the slowest-unit
	// digest. Only called when a telemetry hub is installed, so label
	// formatting costs nothing on unobserved runs.
	Label func(i int) string
	// Owner names the experiment unit i's timing counts toward in the
	// per-experiment digest (nil: none). Only called when a telemetry
	// hub is installed.
	Owner func(i int) string
	// Groups holds the first unit index of each group of consecutive
	// units that share one trace, ascending from 0 (nil = every unit is
	// its own group). It is derived from the unit list, never from user
	// input.
	Groups []int
}

func (o unitOpts) backoff() time.Duration {
	if o.Backoff > 0 {
		return o.Backoff
	}
	return 50 * time.Millisecond
}

func (o unitOpts) clock() tracespan.Clock {
	if o.Clock != nil {
		return o.Clock
	}
	return tracespan.Wall
}

func (o unitOpts) label(i int) string {
	if o.Label == nil {
		return ""
	}
	return o.Label(i)
}

func (o unitOpts) owner(i int) string {
	if o.Owner == nil {
		return ""
	}
	return o.Owner(i)
}

// An outcome is what one call of run made of one of its units.
type outcome struct {
	// commit publishes the unit's results; the worker invokes it (if
	// non-nil) on success. err is the unit's failure.
	commit func()
	err    error
	// start and dur place the unit's span; a zero start places it over
	// the whole call.
	start time.Time
	dur   time.Duration
}

// groupQueue hands whole groups to workers, widest first: the longest
// passes start before the short ones, so the last pass to finish is a
// short one. Groups of equal width keep their order.
type groupQueue struct {
	order   [][2]int     // [lo, hi) unit range of each group, in claim order
	next    atomic.Int64 // groups handed out
	claimed atomic.Int64 // units handed out
}

// newGroupQueue queues n units grouped at starts (see unitOpts.Groups).
func newGroupQueue(n int, starts []int) *groupQueue {
	if starts == nil {
		starts = make([]int, n)
		for i := range starts {
			starts[i] = i
		}
	}
	q := &groupQueue{order: make([][2]int, len(starts))}
	for g, lo := range starts {
		hi := n
		if g+1 < len(starts) {
			hi = starts[g+1]
		}
		q.order[g] = [2]int{lo, hi}
	}
	sort.SliceStable(q.order, func(a, b int) bool {
		return q.order[a][1]-q.order[a][0] > q.order[b][1]-q.order[b][0]
	})
	return q
}

// claim returns the unit indices of the next group, if any is left.
func (q *groupQueue) claim() ([]int, bool) {
	g := int(q.next.Add(1)) - 1
	if g >= len(q.order) {
		return nil, false
	}
	lo, hi := q.order[g][0], q.order[g][1]
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	q.claimed.Add(int64(hi - lo))
	return idx, true
}

// runUnitsCtl executes every unit in [0, n) on up to workers goroutines.
// A worker claims a whole group (o.Groups) and calls run with its unit
// indices once; run returns one outcome per index, in order. A unit
// that failed with ErrTransient or timed out then runs again alone,
// through run, with exponential backoff, up to o.Retries times.
//
// On success the worker invokes the unit's commit (if non-nil) from its
// own goroutine — that is the only path results may reach shared state
// through, which is what makes abandoning a timed-out call safe. Unit
// failures do not cancel siblings; every error is collected and
// returned via errors.Join after all claimable groups ran.
func runUnitsCtl(n, workers int, o unitOpts, run func(ctx context.Context, idx []int) []outcome) error {
	if n <= 0 {
		return nil
	}
	tel := CurrentTelemetry()
	tel.Emit(tracespan.Span{Kind: tracespan.KindQueue, Worker: tracespan.SharedWorker, Unit: -1, Count: int64(n)})
	q := newGroupQueue(n, o.Groups)
	workers = max(1, min(workers, len(q.order)))
	var (
		interrupted atomic.Bool
		mu          sync.Mutex
		errs        []error
		dropped     int
		wg          sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				if stopRequested.Load() {
					interrupted.Store(true)
					return
				}
				idx, ok := q.claim()
				if !ok {
					return
				}
				labels := make([]string, len(idx))
				for k, i := range idx {
					if tel != nil {
						labels[k] = o.label(i)
					}
					tel.Emit(tracespan.Span{Kind: tracespan.KindClaim, Name: labels[k], Worker: w, Unit: i})
				}
				uerrs := runGroup(w, idx, labels, o, tel, run)
				for k, i := range idx {
					release := tracespan.Span{Kind: tracespan.KindRelease, Name: labels[k], Worker: w, Unit: i}
					if uerrs[k] != nil && tel != nil {
						release.Err = uerrs[k].Error()
					}
					tel.Emit(release)
				}
				mu.Lock()
				for _, err := range uerrs {
					if err == nil {
						continue
					}
					if len(errs) < maxJoinedErrors {
						errs = append(errs, err)
					} else {
						dropped++
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// A stop request leaves groups unclaimed; take their units back out
	// of the queue.
	if claimed := int(q.claimed.Load()); claimed < n {
		tel.Emit(tracespan.Span{Kind: tracespan.KindDrain, Worker: tracespan.SharedWorker, Unit: -1, Count: int64(n - claimed)})
	}
	if dropped > 0 {
		errs = append(errs, fmt.Errorf("experiment: %d further unit failures elided", dropped))
	}
	if interrupted.Load() {
		errs = append(errs, ErrInterrupted)
	}
	return errors.Join(errs...)
}

// runGroup runs the units idx, labelled labels, on worker w: all of
// them in one call of run, then each one that failed retryably alone,
// after its backoff through the unit clock, until it succeeds or its
// retries run out. It commits every success and returns each unit's
// final error. Each attempt of a unit emits exactly one KindUnit span
// (plus an abandon or panic instant when the error says so), and each
// scheduled retry exactly one KindRetry span.
func runGroup(w int, idx []int, labels []string, o unitOpts, tel *Telemetry,
	run func(context.Context, []int) []outcome) []error {
	errs := make([]error, len(idx))
	outs := invokeUnits(idx, o.Timeout, tel, run)
	for k, i := range idx {
		errs[k] = settle(w, i, 0, labels[k], outs[k], o, tel)
	}
	clk := o.clock()
	for k, i := range idx {
		attempt := 0
		for delay := o.backoff(); retryable(errs[k]) && attempt < o.Retries && !stopRequested.Load(); delay *= 2 {
			tel.Emit(tracespan.Span{Kind: tracespan.KindRetry, Name: labels[k], Worker: w, Unit: i,
				Attempt: attempt, Detail: delay.String()})
			clk.Sleep(delay)
			attempt++
			errs[k] = settle(w, i, attempt, labels[k], invokeUnits([]int{i}, o.Timeout, tel, run)[0], o, tel)
		}
		switch {
		case errs[k] == nil:
		case attempt > 0:
			errs[k] = fmt.Errorf("unit %d (after %d retries): %w", i, attempt, errs[k])
		default:
			errs[k] = fmt.Errorf("unit %d: %w", i, errs[k])
		}
	}
	return errs
}

// retryable reports whether a unit failing with err may run again.
func retryable(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrUnitTimeout)
}

// settle reports attempt of unit i, labelled label, on worker w, and
// commits it on success.
func settle(w, i, attempt int, label string, out outcome, o unitOpts, tel *Telemetry) error {
	if tel != nil {
		s := tracespan.Span{Kind: tracespan.KindUnit, Name: label, Worker: w, Unit: i, Attempt: attempt,
			StartUnixNano: out.start.UnixNano(), DurNanos: int64(out.dur), Owner: o.owner(i)}
		if out.err != nil {
			s.Err = out.err.Error()
		}
		tel.Emit(s)
		instant := ""
		switch {
		case errors.Is(out.err, ErrUnitTimeout):
			instant = tracespan.KindAbandon
		case errors.Is(out.err, errUnitPanic):
			instant = tracespan.KindPanic
		}
		if instant != "" {
			tel.Emit(tracespan.Span{Kind: instant, Name: label, Worker: w, Unit: i, Attempt: attempt,
				StartUnixNano: out.start.Add(out.dur).UnixNano(), Err: s.Err})
		}
	}
	if out.err == nil && out.commit != nil {
		out.commit()
	}
	return out.err
}

// invokeUnits calls run over idx under the scheduler's panic boundary
// and, when a unit timeout is set, abandons the call past the timeout
// times len(idx): every unit of it then fails with ErrUnitTimeout, the
// call's context is cancelled, and its outcomes are discarded unseen,
// so it can never race a retry or corrupt shared slots. Outcomes with no
// placement of their own get the call's span (timed only when tel is
// non-nil).
func invokeUnits(idx []int, timeout time.Duration, tel *Telemetry,
	run func(context.Context, []int) []outcome) []outcome {
	var start time.Time
	if tel != nil {
		start = tel.now()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	call := func() (outs []outcome) {
		defer func() {
			if r := recover(); r != nil {
				err := fmt.Errorf("experiment: units %v %w: %v\n%s", idx, errUnitPanic, r, debug.Stack())
				outs = failAll(len(idx), err)
			}
		}()
		return run(ctx, idx)
	}
	var outs []outcome
	if timeout <= 0 {
		outs = call()
	} else {
		ch := make(chan []outcome, 1)
		//bcachelint:allow goroutinelife(deliberately abandoned on the timeout path: the buffered send never blocks, the cancelled context stops the call at its next chunk, and the panic boundary already ran; see the hung-unit contract above)
		go func() { ch <- call() }()
		t := time.NewTimer(timeout * time.Duration(len(idx)))
		select {
		case outs = <-ch:
		case <-t.C:
			outs = failAll(len(idx), fmt.Errorf("after %v: %w", timeout*time.Duration(len(idx)), ErrUnitTimeout))
		}
		t.Stop()
	}
	if tel != nil {
		dur := tel.now().Sub(start)
		for k := range outs {
			if outs[k].start.IsZero() {
				outs[k].start, outs[k].dur = start, dur
			}
		}
	}
	return outs
}

// failAll is n outcomes failing with err.
func failAll(n int, err error) []outcome {
	outs := make([]outcome, n)
	for k := range outs {
		outs[k].err = err
	}
	return outs
}

// errUnitPanic marks an error produced by a recovered unit panic, so
// telemetry can classify it without string matching.
var errUnitPanic = errors.New("panicked")

// recovered turns a panic into unit i's error, carrying the stack.
// Defer it directly.
func recovered(i int, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("experiment: unit %d %w: %v\n%s", i, errUnitPanic, r, debug.Stack())
	}
}
