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

// leaseOf returns the single lease held by worker, or nil.
func leaseOf(t *testing.T, table *leaseTable, worker int) *Lease {
	t.Helper()
	var found *Lease
	for _, l := range table.leases {
		if l.Worker == worker {
			if found != nil {
				t.Fatalf("worker %d holds more than one lease", worker)
			}
			found = l
		}
	}
	return found
}

func TestDoomedWorkerNotRegrantedInExpiryWindow(t *testing.T) {
	clk := tracespan.NewFakeClock(time.Unix(1000, 0))
	committed := map[int]bool{}
	c := &coordinator{
		cfg: Config{
			Units:    2,
			LeaseTTL: time.Second,
			Commit: func(unit int, recs []Record) error {
				committed[unit] = true
				return nil
			},
			// RestartBudget 0: the doomed worker's exit must not
			// respawn it; its units belong to the survivor.
		},
		clk:   clk,
		table: newLeaseTable(2),
		procs: []*workerProc{fakeProc(), fakeProc()},
		evc:   make(chan event, 4),
		donec: make(chan struct{}),
	}
	c.stats.Units = 2

	// Both workers lease a unit: worker 0 gets [0,1), worker 1 [1,2).
	c.grantTo(0)
	c.grantTo(1)
	l0 := leaseOf(t, c.table, 0)
	l1 := leaseOf(t, c.table, 1)
	if l0 == nil || l1 == nil {
		t.Fatalf("expected both workers leased; got %v / %v", l0, l1)
	}
	if l0.Start != 0 || l0.End != 1 || l1.Start != 1 || l1.End != 2 {
		t.Fatalf("unexpected lease ranges: [%d,%d) and [%d,%d)",
			l0.Start, l0.End, l1.Start, l1.End)
	}

	// Worker 1 finishes its unit and reports its lease done; with unit
	// 0 still leased to worker 0 there is nothing left to grant, so
	// worker 1 goes idle — the pre-condition for the race.
	if err := c.handleMsg(1, Msg{Type: MsgResult, Lease: l1.ID, Unit: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.handleMsg(1, Msg{Type: MsgLeaseDone, Lease: l1.ID}); err != nil {
		t.Fatal(err)
	}
	if got := leaseOf(t, c.table, 1); got != nil {
		t.Fatalf("worker 1 should be idle, holds lease [%d,%d)", got.Start, got.End)
	}

	// Worker 0 goes silent. Advancing past the TTL and running the
	// expiry sweep must (a) doom slot 0 while its exit event is still
	// pending, (b) keep its own returned units away from it, and (c)
	// hand them to the idle survivor in the same sweep.
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
	if got := leaseOf(t, c.table, 0); got != nil {
		t.Fatalf("doomed worker 0 re-granted units [%d,%d) in the expiry window", got.Start, got.End)
	}
	rl := leaseOf(t, c.table, 1)
	if rl == nil || rl.Start != 0 || rl.End != 1 {
		t.Fatalf("survivor should hold re-granted [0,1); got %v", rl)
	}

	// Extra regrant sweeps inside the window (any event can trigger
	// one) must keep skipping the doomed slot.
	c.regrantIdle()
	if got := leaseOf(t, c.table, 0); got != nil {
		t.Fatal("doomed worker 0 picked up a lease from a later sweep")
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
	if got := leaseOf(t, c.table, 0); got != nil {
		t.Fatal("dead worker 0 holds a lease after exit")
	}
	rl2 := leaseOf(t, c.table, 1)
	if rl2 == nil || rl2.ID != rl.ID {
		t.Fatalf("survivor's lease changed across the exit event: %v -> %v", rl, rl2)
	}

	// The survivor finishes the recovered unit; the campaign settles
	// with every unit committed exactly once.
	if err := c.handleMsg(1, Msg{Type: MsgResult, Lease: rl2.ID, Unit: 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.handleMsg(1, Msg{Type: MsgLeaseDone, Lease: rl2.ID}); err != nil {
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
// (first-commit-wins), never re-commit.
func TestExitDuringExpiryWindowThenLateResult(t *testing.T) {
	clk := tracespan.NewFakeClock(time.Unix(2000, 0))
	commits := map[int]int{}
	c := &coordinator{
		cfg: Config{
			Units:    2,
			LeaseTTL: time.Second,
			Commit: func(unit int, recs []Record) error {
				commits[unit]++
				return nil
			},
		},
		clk:   clk,
		table: newLeaseTable(2),
		procs: []*workerProc{fakeProc(), fakeProc()},
		evc:   make(chan event, 4),
		donec: make(chan struct{}),
	}
	c.stats.Units = 2

	c.grantTo(0)
	l0 := leaseOf(t, c.table, 0)
	if l0 == nil {
		t.Fatal("worker 0 got no lease")
	}

	// Expire it; the idle worker 1 inherits unit 0 and commits it.
	clk.Advance(2 * time.Second)
	c.handleExpiries()
	rl := leaseOf(t, c.table, 1)
	if rl == nil {
		t.Fatal("survivor got no re-grant")
	}
	if err := c.handleMsg(1, Msg{Type: MsgResult, Lease: rl.ID, Unit: 0}); err != nil {
		t.Fatal(err)
	}

	// The doomed worker's buffered result for the same unit arrives
	// just before its exit event: duplicate, dropped, counted.
	if err := c.handleMsg(0, Msg{Type: MsgResult, Lease: l0.ID, Unit: 0}); err != nil {
		t.Fatal(err)
	}
	c.handleExit(0, errors.New("signal: killed"), false)

	if commits[0] != 1 {
		t.Fatalf("unit 0 committed %d times, want exactly 1", commits[0])
	}
	if c.table.dups != 1 {
		t.Fatalf("dups = %d, want 1", c.table.dups)
	}
	if got := leaseOf(t, c.table, 1); got == nil || got.ID != rl.ID {
		t.Fatal("survivor's lease disturbed by the late result + exit")
	}
}
