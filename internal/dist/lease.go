package dist

import "time"

// The lease table is the coordinator's single source of truth about who
// owns which units. Units move pending → leased → done, or → failed on
// the first reported unit error. A lease is one unit on one worker slot:
// each slot holds at most one, with a deadline. A lease ends when its
// slot reports the unit (result or unit error); a lease that misses its
// deadline, or whose worker dies, returns its unit to pending, where a
// survivor picks it up. A unit error is never retried here: the caller's
// in-process scheduler reruns failed units under its own retry policy.
// Completion is per *unit* and first-commit-wins: when a slow worker and
// its replacement both finish the same unit, the first result commits
// and the second is counted as a duplicate and dropped — never
// re-applied, so re-leasing can never change a committed value.
//
// The table is deliberately passive about time: every method that needs
// a clock takes `now` as a parameter, so the coordinator's clock is the
// only time source and tests drive expiry with a FakeClock.

// unit states.
const (
	unitPending = iota
	unitLeased
	unitDone
	unitFailed // a worker reported a unit error; left to the caller
)

// idle is the unit of a slot that holds no lease.
const idle = -1

// CompleteStatus classifies a unit completion.
type CompleteStatus int

const (
	// Committed: first completion of the unit; the caller applies it.
	Committed CompleteStatus = iota
	// Duplicate: the unit was already committed (a re-leased unit came
	// back twice); the caller drops this copy.
	Duplicate
)

// slotLease is one worker slot's lease: the unit it runs (idle when
// none) and the deadline heartbeats push back.
type slotLease struct {
	unit     int
	deadline time.Time
}

// leaseTable tracks unit and lease state. Not safe for concurrent use;
// the coordinator mutates it from its event loop only.
type leaseTable struct {
	state  []int
	slots  []slotLease
	done   int
	failed int
	dups   int
}

func newLeaseTable(units, slots int) *leaseTable {
	t := &leaseTable{state: make([]int, units), slots: make([]slotLease, slots)}
	for i := range t.slots {
		t.slots[i].unit = idle
	}
	return t
}

// markDone pre-seeds a unit as complete (checkpoint resume).
func (t *leaseTable) markDone(unit int) {
	if t.state[unit] == unitDone {
		return
	}
	t.state[unit] = unitDone
	t.done++
}

// grant leases the lowest pending unit to an idle slot; ok is false when
// the slot already holds a lease or nothing is pending.
func (t *leaseTable) grant(slot int, now time.Time, ttl time.Duration) (unit int, ok bool) {
	if t.slots[slot].unit != idle {
		return 0, false
	}
	for u, s := range t.state {
		if s == unitPending {
			t.state[u] = unitLeased
			t.slots[slot] = slotLease{unit: u, deadline: now.Add(ttl)}
			return u, true
		}
	}
	return 0, false
}

// heartbeat extends slot's lease, if it holds one.
func (t *leaseTable) heartbeat(slot int, now time.Time, ttl time.Duration) {
	if t.slots[slot].unit != idle {
		t.slots[slot].deadline = now.Add(ttl)
	}
}

// release drops slot's lease and returns the unit it held to pending
// unless it already finished; returned says whether it did. A lease
// ends this way on every path: the slot reported its unit (which is
// then done or failed, so nothing returns), its deadline passed, or its
// worker died.
func (t *leaseTable) release(slot int) (unit int, returned bool) {
	unit = t.slots[slot].unit
	if unit == idle {
		return idle, false
	}
	t.slots[slot].unit = idle
	if t.state[unit] == unitLeased {
		t.state[unit] = unitPending
		return unit, true
	}
	return unit, false
}

// expired returns the slots whose lease is past its deadline at now, in
// slot order, without releasing them: the coordinator decides what to do
// with the worker first.
func (t *leaseTable) expired(now time.Time) []int {
	var out []int
	for slot, l := range t.slots {
		if l.unit != idle && now.After(l.deadline) {
			out = append(out, slot)
		}
	}
	return out
}

// complete commits unit, first-commit-wins. The unit may belong to an
// expired lease — the work is still valid, only the deadline was missed.
func (t *leaseTable) complete(unit int) CompleteStatus {
	switch t.state[unit] {
	case unitDone:
		t.dups++
		return Duplicate
	case unitFailed:
		// A late success beats an earlier failure.
		t.failed--
	}
	t.state[unit] = unitDone
	t.done++
	return Committed
}

// fail marks unit failed on its first reported execution error and
// reports true; a unit already done or failed is left as it is.
func (t *leaseTable) fail(unit int) bool {
	switch t.state[unit] {
	case unitDone:
		t.dups++ // failed rerun of an already-committed unit
		return false
	case unitFailed:
		return false
	}
	t.state[unit] = unitFailed
	t.failed++
	return true
}

// failedUnits returns failed units, ascending.
func (t *leaseTable) failedUnits() []int {
	var out []int
	for i, s := range t.state {
		if s == unitFailed {
			out = append(out, i)
		}
	}
	return out
}

// unfinished counts the units not yet done or failed — what the campaign
// leaves to the caller when every worker is lost.
func (t *leaseTable) unfinished() int { return len(t.state) - t.done - t.failed }

// settled reports whether every unit reached done or failed.
func (t *leaseTable) settled() bool { return t.unfinished() == 0 }
