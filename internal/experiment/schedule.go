package experiment

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bcache/internal/obs/tracespan"
	"bcache/internal/workload"
)

// The scheduler is the suite's crash boundary. A multi-hour campaign must
// survive one misbehaving work unit — a panic in a cache model, a
// wedged simulation, a transient failure — without losing the hours of
// sibling results already computed. Three mechanisms provide that:
//
//   - Panic isolation: each unit runs under recover; a panic becomes an
//     error carrying the unit's stack, and every other unit proceeds.
//   - Deadlines and retry: a unit exceeding its deadline is abandoned
//     (the orphaned goroutine can never write shared state, because
//     results are committed only via a closure the worker itself invokes
//     on receipt) and retried with exponential backoff, as are units
//     failing with ErrTransient.
//   - No cancel-on-first-error: workers keep draining the unit queue
//     after a failure, so one bad (benchmark, spec) pair costs one cell,
//     not the whole table. All errors come back via errors.Join alongside
//     whatever results completed.
//
// RequestStop (wired to SIGINT in the CLIs) is the one thing that stops
// claiming early: in-flight units finish, the error includes
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

// unitOpts bounds one scheduled work unit.
type unitOpts struct {
	// Timeout abandons a unit that runs longer (0 = no deadline). The
	// abandoned goroutine is left to finish in the background; its
	// commit closure is never invoked.
	Timeout time.Duration
	// Retries re-runs a unit that timed out or failed with ErrTransient
	// up to this many additional times.
	Retries int
	// Backoff is the first retry delay, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Clock times unit attempts and sleeps retry backoffs (nil = wall
	// clock). Tests inject tracespan.FakeClock to pin exact schedules.
	Clock tracespan.Clock
	// Label names unit i for telemetry spans and the slowest-unit
	// digest. Only called when a telemetry hub is installed, so label
	// formatting costs nothing on unobserved runs.
	Label func(i int) string
	// Group is the length of the runs of consecutive units that share
	// one trace (the last run may be shorter); ≤ 1 means no grouping.
	// It is derived from the caller's job layout, never from user input:
	// see groupQueue for how it changes the claim order.
	Group int
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

// groupQueue hands out unit indices to workers. Units come in groups of
// size consecutive indices that share one trace. A worker keeps
// claiming from its current group, then starts the next unstarted
// group, and joins an already-started group only once no unstarted
// group remains. So two workers build two different traces at the same
// time instead of one waiting in the other's trace build, and the tail
// still spreads over every worker. With size 1 every group is one unit
// and the order is that of a single shared counter.
type groupQueue struct {
	n, size, groups int
	started         atomic.Int64   // groups handed to a first worker
	taken           []atomic.Int64 // per group: claim attempts made
	claimed         atomic.Int64   // units handed out in total
}

func newGroupQueue(n, size int) *groupQueue {
	if size < 1 {
		size = 1
	}
	groups := (n + size - 1) / size
	return &groupQueue{n: n, size: size, groups: groups, taken: make([]atomic.Int64, groups)}
}

// claim returns the next unit for a worker whose current group is *g
// (-1 before its first claim), updating *g to the unit's group.
func (q *groupQueue) claim(g *int) (int, bool) {
	if *g >= 0 {
		if i, ok := q.take(*g); ok {
			return i, true
		}
	}
	for {
		ng := int(q.started.Add(1)) - 1
		if ng >= q.groups {
			break
		}
		if i, ok := q.take(ng); ok {
			*g = ng
			return i, true
		}
	}
	for j := 0; j < q.groups; j++ {
		if i, ok := q.take(j); ok {
			*g = j
			return i, true
		}
	}
	return 0, false
}

// take claims the next unit of group g, if any is left.
func (q *groupQueue) take(g int) (int, bool) {
	lo := g * q.size
	size := min(q.size, q.n-lo)
	if q.taken[g].Load() >= int64(size) {
		return 0, false
	}
	k := int(q.taken[g].Add(1)) - 1
	if k >= size {
		return 0, false
	}
	q.claimed.Add(1)
	return lo + k, true
}

// runUnitsCtl executes fn(i) for every i in [0, n) on up to workers
// goroutines claiming from a shared groupQueue (grouped by o.Group).
// Work units should be the finest independent grain available —
// (profile × spec × seed) rather than whole profiles — so a run with
// fewer benchmarks than cores still saturates the machine.
//
// fn returns (commit, error). On success the worker invokes commit (if
// non-nil) from its own goroutine — that is the only path results may
// reach shared state through, which is what makes abandoning a
// timed-out unit safe. Unit failures do not cancel siblings; every
// error is collected and returned via errors.Join after all claimable
// units ran.
func runUnitsCtl(n, workers int, o unitOpts, fn func(int) (func(), error)) error {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	tel := CurrentTelemetry()
	tel.runQueued(n)
	q := newGroupQueue(n, o.Group)
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
			g := -1
			for {
				if stopRequested.Load() {
					interrupted.Store(true)
					return
				}
				i, ok := q.claim(&g)
				if !ok {
					return
				}
				tel.unitClaimed()
				err := runOneUnit(w, i, o, tel, fn)
				tel.unitReleased()
				if err != nil {
					tel.unitFailed()
					mu.Lock()
					if len(errs) < maxJoinedErrors {
						errs = append(errs, err)
					} else {
						dropped++
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	// A stop request leaves units unclaimed; take them back out of the
	// queue-depth gauge.
	if claimed := int(q.claimed.Load()); claimed < n {
		tel.runDrained(n - claimed)
	}
	if dropped > 0 {
		errs = append(errs, fmt.Errorf("experiment: %d further unit failures elided", dropped))
	}
	if interrupted.Load() {
		errs = append(errs, ErrInterrupted)
	}
	return errors.Join(errs...)
}

// runOneUnit runs unit i to completion on worker w, committing on
// success and retrying timeouts and transient failures with exponential
// backoff through the unit clock. Each attempt emits exactly one
// KindUnit span, and each scheduled retry exactly one KindRetry span.
func runOneUnit(w, i int, o unitOpts, tel *Telemetry, fn func(int) (func(), error)) error {
	clk := o.clock()
	label := ""
	if tel != nil {
		label = o.label(i)
	}
	delay := o.backoff()
	for attempt := 0; ; attempt++ {
		var start time.Time
		if tel != nil {
			start = tel.now()
		}
		commit, err := invokeUnit(i, o.Timeout, fn)
		if tel != nil {
			tel.unitAttempt(w, i, label, attempt, start, tel.now().Sub(start), err)
		}
		if err == nil {
			if commit != nil {
				commit()
			}
			return nil
		}
		retryable := errors.Is(err, ErrTransient) || errors.Is(err, ErrUnitTimeout)
		if !retryable || attempt >= o.Retries || stopRequested.Load() {
			if attempt > 0 {
				return fmt.Errorf("unit %d (after %d retries): %w", i, attempt, err)
			}
			return fmt.Errorf("unit %d: %w", i, err)
		}
		tel.unitRetry(w, i, label, attempt, delay)
		clk.Sleep(delay)
		delay *= 2
	}
}

// invokeUnit calls fn(i) with panic isolation and, when a deadline is
// set, abandons the call past it. An abandoned call keeps running on its
// orphaned goroutine but its commit closure is discarded unseen, so it
// can never race a retry or corrupt shared slots.
func invokeUnit(i int, timeout time.Duration, fn func(int) (func(), error)) (func(), error) {
	if timeout <= 0 {
		return protectUnit(i, fn)
	}
	type outcome struct {
		commit func()
		err    error
	}
	ch := make(chan outcome, 1)
	//bcachelint:allow goroutinelife(deliberately abandoned on the timeout path: the buffered send never blocks and the unit's panic protection already ran; see the hung-unit contract above)
	go func() {
		c, err := protectUnit(i, fn)
		ch <- outcome{c, err}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out.commit, out.err
	case <-t.C:
		return nil, fmt.Errorf("after %v: %w", timeout, ErrUnitTimeout)
	}
}

// errUnitPanic marks an error produced by a recovered unit panic, so
// telemetry can classify it without string matching.
var errUnitPanic = errors.New("panicked")

// protectUnit converts a panic in fn into an error carrying the stack.
func protectUnit(i int, fn func(int) (func(), error)) (commit func(), err error) {
	defer func() {
		if r := recover(); r != nil {
			commit = nil
			err = fmt.Errorf("experiment: unit %d %w: %v\n%s", i, errUnitPanic, r, debug.Stack())
		}
	}()
	return fn(i)
}

// runUnits is the plain-grain scheduler: fn both computes and stores its
// result (safe because without a deadline no call is ever abandoned).
func runUnits(n, workers int, fn func(int) error) error {
	return runUnitsLabeled(n, workers, nil, fn)
}

// runUnitsLabeled is runUnits with telemetry labels for the units.
func runUnitsLabeled(n, workers int, label func(i int) string, fn func(int) error) error {
	return runUnitsCtl(n, workers, unitOpts{Label: label}, func(i int) (func(), error) {
		return nil, fn(i)
	})
}

// profileUnits runs fn for every (profile, config) pair as its own work
// unit under opts' deadline and retry bounds, grouped by profile so a
// profile's configs share one trace, and returns the results indexed
// [profile][config]. Unit labels read "<id>/<profile>/<config>".
func profileUnits[R any](opts Opts, id string, profiles []*workload.Profile, configs []string,
	fn func(p *workload.Profile, c int) (R, error)) ([][]R, error) {
	nc := len(configs)
	out := make([][]R, len(profiles))
	for pi := range out {
		out[pi] = make([]R, nc)
	}
	uo := unitOpts{
		Timeout: opts.UnitTimeout,
		Retries: opts.UnitRetries,
		Group:   nc,
		Label: func(i int) string {
			return fmt.Sprintf("%s/%s/%s", id, profiles[i/nc].Name, configs[i%nc])
		},
	}
	err := runUnitsCtl(len(profiles)*nc, opts.workers(), uo, func(i int) (func(), error) {
		pi, c := i/nc, i%nc
		r, err := fn(profiles[pi], c)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", profiles[pi].Name, configs[c], err)
		}
		return func() { out[pi][c] = r }, nil
	})
	return out, err
}

// forEachProfile runs fn over profiles with bounded parallelism.
// Experiments whose work does not decompose further use this; the
// miss-rate and timed paths schedule finer units directly.
func forEachProfile(profiles []*workload.Profile, workers int, fn func(*workload.Profile) error) error {
	return runUnitsLabeled(len(profiles), workers,
		func(i int) string { return profiles[i].Name },
		func(i int) error {
			if err := fn(profiles[i]); err != nil {
				return fmt.Errorf("%s: %w", profiles[i].Name, err)
			}
			return nil
		})
}
