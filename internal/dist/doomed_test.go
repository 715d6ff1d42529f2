package dist

import (
	"encoding/json"
	"errors"
	"io"
	"testing"
	"time"

	"bcache/internal/obs/tracespan"
)

// White-box coverage for the doomed-flag window: when a lease expires,
// handleExpiries SIGKILLs the worker but its exit event has not arrived
// yet — the process is still marked alive. The regrant sweep that runs
// in the same breath must skip that slot (slot order would otherwise
// hand the expired units straight back to the hung worker) and offer
// the units to the idle survivor instead. The scripted-subprocess chaos
// tests exercise this only probabilistically; here the coordinator is
// driven event by event so the window is pinned exactly.

// nopWriteCloser satisfies workerProc.stdin without a real pipe.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// fakeProc builds a workerProc that looks live to the coordinator but
// has no subprocess behind it. The pid is large and nonexistent so the
// SIGKILL handleExpiries sends to its process group hits nothing (pid 0
// or a real pid would signal this test's own group).
func fakeProc() *workerProc {
	return &workerProc{
		stdin:   nopWriteCloser{io.Discard},
		enc:     json.NewEncoder(io.Discard),
		pid:     999999,
		alive:   true,
		greeted: true,
	}
}

// fakeCoordinator builds a coordinator over fake workers, driven event
// by event: the caller invokes handleMsg, handleExpiries and handleExit
// itself. RestartBudget is 0, so a dead slot never respawns.
func fakeCoordinator(units, workers int, clk *tracespan.FakeClock, commit func(unit int, recs []Record) error) *coordinator {
	c := &coordinator{
		cfg:   Config{Units: units, Workers: workers, LeaseTTL: time.Second, Commit: commit},
		clk:   clk,
		table: newLeaseTable(units, workers),
		procs: make([]*workerProc, workers),
		evc:   make(chan event, 4),
		donec: make(chan struct{}),
	}
	for i := range c.procs {
		c.procs[i] = fakeProc()
	}
	c.stats.Units = units
	return c
}

// held returns the unit slot's lease holds, or idle.
func held(c *coordinator, slot int) int { return c.table.slots[slot].unit }

func TestDoomedWorkerNotRegrantedInExpiryWindow(t *testing.T) {
	clk := tracespan.NewFakeClock(time.Unix(1000, 0))
	committed := map[int]bool{}
	c := fakeCoordinator(2, 2, clk, func(unit int, recs []Record) error {
		committed[unit] = true
		return nil
	})

	// Both workers lease a unit: worker 0 gets unit 0, worker 1 unit 1.
	c.grantTo(0)
	c.grantTo(1)
	if held(c, 0) != 0 || held(c, 1) != 1 {
		t.Fatalf("leases = %d / %d, want units 0 / 1", held(c, 0), held(c, 1))
	}

	// Worker 1 reports its unit, which ends its lease; with unit 0 still
	// leased to worker 0 there is nothing left to grant, so worker 1
	// goes idle — the pre-condition for the race.
	if err := c.handleMsg(1, Msg{Type: MsgResult, Unit: 1}); err != nil {
		t.Fatal(err)
	}
	if got := held(c, 1); got != idle {
		t.Fatalf("worker 1 should be idle, holds unit %d", got)
	}

	// Worker 0 goes silent. Advancing past the TTL and running the
	// expiry sweep must (a) doom slot 0 while its exit event is still
	// pending, (b) keep its own returned unit away from it, and (c)
	// hand it to the idle survivor in the same sweep.
	clk.Advance(2 * time.Second)
	c.handleExpiries()
	if !c.procs[0].doomed {
		t.Fatal("worker 0 not doomed after its lease expired")
	}
	if !c.procs[0].alive {
		t.Fatal("worker 0 should still read as alive until its exit event")
	}
	if c.stats.Expiries != 1 {
		t.Fatalf("Expiries = %d, want 1", c.stats.Expiries)
	}
	if got := held(c, 0); got != idle {
		t.Fatalf("doomed worker 0 re-granted unit %d in the expiry window", got)
	}
	if got := held(c, 1); got != 0 {
		t.Fatalf("survivor should hold re-granted unit 0; holds %d", got)
	}

	// Extra regrant sweeps inside the window (any event can trigger
	// one) must keep skipping the doomed slot.
	c.regrantIdle()
	if got := held(c, 0); got != idle {
		t.Fatalf("doomed worker 0 picked up unit %d from a later sweep", got)
	}

	// The SIGKILL's exit event lands. With a zero restart budget the
	// slot stays down, nothing new returns to pending (its lease was
	// already reclaimed by the expiry), and the survivor keeps its
	// lease untouched.
	c.handleExit(0, errors.New("signal: killed"), false)
	if c.procs[0].alive {
		t.Fatal("worker 0 still alive after its exit event")
	}
	if c.stats.Restarts != 0 {
		t.Fatalf("Restarts = %d, want 0", c.stats.Restarts)
	}
	if got := held(c, 0); got != idle {
		t.Fatalf("dead worker 0 holds unit %d after exit", got)
	}
	if got := held(c, 1); got != 0 {
		t.Fatalf("survivor's lease changed across the exit event: holds %d", got)
	}

	// The survivor finishes the recovered unit; the campaign settles
	// with every unit committed exactly once.
	if err := c.handleMsg(1, Msg{Type: MsgResult, Unit: 0}); err != nil {
		t.Fatal(err)
	}
	if !c.table.settled() {
		t.Fatal("table not settled after survivor finished the recovered units")
	}
	for unit := 0; unit < 2; unit++ {
		if !committed[unit] {
			t.Fatalf("unit %d never committed", unit)
		}
	}
	if c.table.dups != 0 {
		t.Fatalf("dups = %d, want 0", c.table.dups)
	}
}

// TestExitDuringExpiryWindowThenLateResult covers the overlap the other
// direction: the doomed worker's exit event arrives while a straggler
// result from its expired lease is still in the pipe. The late result
// for a unit the survivor already committed must drop as a duplicate
// (first-commit-wins), never re-commit, and grants the doomed slot
// nothing.
func TestExitDuringExpiryWindowThenLateResult(t *testing.T) {
	clk := tracespan.NewFakeClock(time.Unix(2000, 0))
	commits := map[int]int{}
	c := fakeCoordinator(2, 2, clk, func(unit int, recs []Record) error {
		commits[unit]++
		return nil
	})

	c.grantTo(0)
	if held(c, 0) != 0 {
		t.Fatal("worker 0 got no lease")
	}

	// Expire it; the idle worker 1 inherits unit 0 and commits it,
	// which ends its lease and grants it unit 1.
	clk.Advance(2 * time.Second)
	c.handleExpiries()
	if held(c, 1) != 0 {
		t.Fatal("survivor got no re-grant")
	}
	if err := c.handleMsg(1, Msg{Type: MsgResult, Unit: 0}); err != nil {
		t.Fatal(err)
	}
	if held(c, 1) != 1 {
		t.Fatalf("survivor holds %d after its result, want the next unit 1", held(c, 1))
	}

	// The doomed worker's buffered result for the same unit arrives
	// just before its exit event: duplicate, dropped, counted.
	if err := c.handleMsg(0, Msg{Type: MsgResult, Unit: 0}); err != nil {
		t.Fatal(err)
	}
	if held(c, 0) != idle {
		t.Fatalf("doomed worker 0 granted unit %d by its late result", held(c, 0))
	}
	c.handleExit(0, errors.New("signal: killed"), false)

	if commits[0] != 1 {
		t.Fatalf("unit 0 committed %d times, want exactly 1", commits[0])
	}
	if c.table.dups != 1 {
		t.Fatalf("dups = %d, want 1", c.table.dups)
	}
	if held(c, 1) != 1 {
		t.Fatal("survivor's lease disturbed by the late result + exit")
	}
}
