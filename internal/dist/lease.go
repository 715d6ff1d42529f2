package dist

import (
	"sort"
	"time"
)

// The lease table is the coordinator's single source of truth about who
// owns which units. Units move pending → leased → done, or → failed on
// the first reported unit error; a lease that misses its deadline (or
// whose worker dies) releases its unfinished units back to pending,
// where a survivor picks them up. A unit error is never retried here:
// the caller's in-process scheduler reruns failed units under its own
// retry policy. Completion is per *unit* and first-commit-wins: when a
// slow worker and its replacement both finish the same unit, the first
// result commits and the second is counted as a duplicate and dropped —
// never re-applied, so re-leasing can never change a committed value.
//
// The table is deliberately passive about time: every method that needs
// a clock takes `now` as a parameter, so the coordinator's Clock seam is
// the only time source and tests drive expiry with a FakeClock.

// unit states.
const (
	unitPending = iota
	unitLeased
	unitDone
	unitFailed // a worker reported a unit error; left to the caller
)

// CompleteStatus classifies a unit completion.
type CompleteStatus int

const (
	// Committed: first completion of the unit; the caller applies it.
	Committed CompleteStatus = iota
	// Duplicate: the unit was already committed (a re-leased unit came
	// back twice); the caller drops this copy.
	Duplicate
)

// Lease is one granted range of units [Start, End).
type Lease struct {
	ID     int       `json:"id"`
	Worker int       `json:"worker"`
	Start  int       `json:"start"`
	End    int       `json:"end"`
	Expiry time.Time `json:"expiry"`
}

// leaseTable tracks unit and lease state. Not safe for concurrent use;
// the coordinator mutates it from its event loop only.
type leaseTable struct {
	state  []int
	leases map[int]*Lease
	nextID int
	done   int
	failed int
	dups   int
}

func newLeaseTable(units int) *leaseTable {
	return &leaseTable{state: make([]int, units), leases: map[int]*Lease{}, nextID: 1}
}

// markDone pre-seeds a unit as complete (checkpoint resume).
func (t *leaseTable) markDone(unit int) {
	if t.state[unit] == unitDone {
		return
	}
	t.state[unit] = unitDone
	t.done++
}

// grant leases the lowest-indexed contiguous run of pending units, at
// most max long, to worker; ok is false when nothing is pending. Leased
// units are skipped over, so re-leased singletons and fresh ranges mix.
func (t *leaseTable) grant(worker, max int, now time.Time, ttl time.Duration) (Lease, bool) {
	start := -1
	for i, s := range t.state {
		if s == unitPending {
			start = i
			break
		}
	}
	if start < 0 {
		return Lease{}, false
	}
	end := start
	for end < len(t.state) && end-start < max && t.state[end] == unitPending {
		end++
	}
	l := &Lease{ID: t.nextID, Worker: worker, Start: start, End: end, Expiry: now.Add(ttl)}
	t.nextID++
	for i := start; i < end; i++ {
		t.state[i] = unitLeased
	}
	t.leases[l.ID] = l
	return *l, true
}

// heartbeat extends a live lease's deadline; unknown (already released)
// leases are ignored.
func (t *leaseTable) heartbeat(leaseID int, now time.Time, ttl time.Duration) {
	if l, ok := t.leases[leaseID]; ok {
		l.Expiry = now.Add(ttl)
	}
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

// release drops a lease and returns its unfinished units to pending
// (worker exit, lease expiry, or normal leaseDone — in the last case
// every unit is already done or failed and nothing moves).
func (t *leaseTable) release(leaseID int) (returned int) {
	l, ok := t.leases[leaseID]
	if !ok {
		return 0
	}
	delete(t.leases, leaseID)
	for i := l.Start; i < l.End; i++ {
		if t.state[i] == unitLeased {
			t.state[i] = unitPending
			returned++
		}
	}
	return returned
}

// releaseWorker releases every lease held by worker.
func (t *leaseTable) releaseWorker(worker int) (returned int) {
	ids := make([]int, 0, len(t.leases))
	for id, l := range t.leases {
		if l.Worker == worker {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids) // map order must not leak into release ordering
	for _, id := range ids {
		returned += t.release(id)
	}
	return returned
}

// hasLease reports whether worker holds any live lease.
func (t *leaseTable) hasLease(worker int) bool {
	for _, l := range t.leases {
		if l.Worker == worker {
			return true
		}
	}
	return false
}

// expired returns the leases past their deadline at now, in lease-ID
// order, without releasing them: the coordinator decides what to do with
// the worker first.
func (t *leaseTable) expired(now time.Time) []Lease {
	var out []Lease
	for _, l := range t.leases {
		if now.After(l.Expiry) {
			out = append(out, *l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
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
