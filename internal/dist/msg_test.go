package dist

import (
	"errors"
	"testing"
	"time"

	"bcache/internal/obs/tracespan"
)

// A worker is input from outside the coordinator process: nothing it
// sends may crash the coordinator or commit a unit twice.

// TestOutOfRangeUnitIgnored: a result or unit error naming a unit
// outside the plan is logged and dropped; it commits and fails nothing.
func TestOutOfRangeUnitIgnored(t *testing.T) {
	commits := 0
	c := fakeCoordinator(2, 1, tracespan.NewFakeClock(time.Unix(3000, 0)), func(int, []Record) error {
		commits++
		return nil
	})
	c.grantTo(0)
	for _, m := range []Msg{
		{Type: MsgResult, Unit: 2},
		{Type: MsgResult, Unit: -1},
		{Type: MsgUnitErr, Unit: -1, Err: "boom"},
		{Type: MsgUnitErr, Unit: 2, Err: "boom"},
	} {
		if err := c.handleMsg(0, m); err != nil {
			t.Fatalf("%s unit %d: %v", m.Type, m.Unit, err)
		}
	}
	if commits != 0 || c.table.done != 0 || c.table.failed != 0 {
		t.Fatalf("out-of-range reports changed the table: commits=%d done=%d failed=%d",
			commits, c.table.done, c.table.failed)
	}
	if held(c, 0) != 0 {
		t.Fatalf("slot 0 holds %d, want its lease on unit 0 untouched", held(c, 0))
	}
}

// TestHeartbeatExtendsOnlyTheSendersLease: a heartbeat pushes back the
// deadline of the sending slot's lease, and from an idle or doomed slot
// it extends nothing.
func TestHeartbeatExtendsOnlyTheSendersLease(t *testing.T) {
	clk := tracespan.NewFakeClock(time.Unix(4000, 0))
	c := fakeCoordinator(1, 2, clk, func(int, []Record) error { return nil })
	c.grantTo(0) // slot 1 stays idle: there is one unit
	deadline := c.table.slots[0].deadline

	clk.Advance(500 * time.Millisecond)
	if err := c.handleMsg(1, Msg{Type: MsgHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if got := c.table.slots[0].deadline; !got.Equal(deadline) {
		t.Fatalf("idle slot's heartbeat moved slot 0's deadline %v -> %v", deadline, got)
	}
	if held(c, 1) != idle {
		t.Fatal("idle slot's heartbeat granted it a lease")
	}

	// Slot 0 expires and is doomed; the idle survivor inherits unit 0.
	clk.Advance(time.Second)
	c.handleExpiries()
	if !c.procs[0].doomed || held(c, 1) != 0 {
		t.Fatalf("after expiry: doomed=%v, slot 1 holds %d", c.procs[0].doomed, held(c, 1))
	}
	survivor := c.table.slots[1].deadline
	clk.Advance(500 * time.Millisecond)
	if err := c.handleMsg(0, Msg{Type: MsgHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if held(c, 0) != idle {
		t.Fatal("doomed slot's heartbeat gave it a lease")
	}
	if got := c.table.slots[1].deadline; !got.Equal(survivor) {
		t.Fatalf("doomed slot's heartbeat moved the survivor's deadline %v -> %v", survivor, got)
	}

	// The survivor's own heartbeat does extend its lease.
	if err := c.handleMsg(1, Msg{Type: MsgHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if want := clk.Now().Add(c.cfg.LeaseTTL); !c.table.slots[1].deadline.Equal(want) {
		t.Fatalf("survivor's deadline = %v, want %v", c.table.slots[1].deadline, want)
	}
}

// FuzzCoordinatorMsg feeds the coordinator an arbitrary sequence of
// worker messages, lease expiries and worker exits. Each op is three
// bytes: what happens, which slot, and the unit a message names. The
// coordinator must never panic, commit a unit at most once, keep one
// holder for every leased unit, and account for every unit as done,
// failed or unfinished.
func FuzzCoordinatorMsg(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 5, 0, 0, 1, 1, 0, 6, 0, 0, 1, 0, 0, 2, 1, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 0, 0xff, 2, 0, 0x80, 3, 1, 0, 7, 0, 0, 4, 2, 0})
	f.Add([]byte{0, 2, 1, 0, 1, 0, 2, 2, 0, 2, 2, 0, 1, 2, 0, 1, 1, 1, 5, 0, 0, 1, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const units, workers = 3, 3
		clk := tracespan.NewFakeClock(time.Unix(5000, 0))
		commits := make([]int, units)
		c := fakeCoordinator(units, workers, clk, func(unit int, recs []Record) error {
			commits[unit]++
			return nil
		})
		for i := 0; i+3 <= len(ops); i += 3 {
			slot, unit := int(ops[i+1])%workers, int(int8(ops[i+2]))
			switch ops[i] % 8 {
			case 0:
				m := Msg{Type: MsgHello, Fingerprint: c.cfg.Fingerprint, Units: units}
				if unit%2 != 0 {
					m.Fingerprint++ // a foreign plan: refused, never granted
				}
				_ = c.handleMsg(slot, m)
			case 1:
				_ = c.handleMsg(slot, Msg{Type: MsgResult, Unit: unit})
			case 2:
				_ = c.handleMsg(slot, Msg{Type: MsgUnitErr, Unit: unit, Err: "fuzz"})
			case 3:
				_ = c.handleMsg(slot, Msg{Type: MsgHeartbeat, Unit: unit})
			case 4:
				_ = c.handleMsg(slot, Msg{Type: MsgBye})
			case 5:
				clk.Advance(time.Duration(ops[i+2]) * 10 * time.Millisecond)
				c.handleExpiries()
			case 6:
				c.handleExit(slot, errors.New("fuzz exit"), false)
			case 7:
				_ = c.handleMsg(slot, Msg{Type: "bogus", Unit: unit})
			}
		}

		done, failed, unfinished := 0, 0, 0
		for u, n := range commits {
			if n > 1 {
				t.Fatalf("unit %d committed %d times", u, n)
			}
			done += n
		}
		for u, s := range c.table.state {
			switch s {
			case unitFailed:
				failed++
			case unitPending, unitLeased:
				unfinished++
			}
			holders := 0
			for _, l := range c.table.slots {
				if l.unit == u {
					holders++
				}
			}
			if s == unitLeased && holders != 1 {
				t.Fatalf("leased unit %d has %d holders", u, holders)
			}
		}
		if done+failed+unfinished != units {
			t.Fatalf("done %d + failed %d + unfinished %d != %d units", done, failed, unfinished, units)
		}
		if done != c.stats.Committed || done != c.table.done {
			t.Fatalf("commits %d, stats.Committed %d, table.done %d disagree", done, c.stats.Committed, c.table.done)
		}
	})
}
