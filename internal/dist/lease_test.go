package dist

import (
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

// grantOK grants slot a lease and returns its unit, failing the test
// when nothing is granted.
func grantOK(t *testing.T, lt *leaseTable, slot int) int {
	t.Helper()
	u, ok := lt.grant(slot, t0, time.Minute)
	if !ok {
		t.Fatalf("slot %d granted nothing", slot)
	}
	return u
}

// TestLeaseGrantLowestPendingOnePerSlot: grants take the lowest pending
// unit, a slot holds one lease at a time, and a slot whose lease ended
// gets the next unit.
func TestLeaseGrantLowestPendingOnePerSlot(t *testing.T) {
	lt := newLeaseTable(3, 2)
	if u := grantOK(t, lt, 0); u != 0 {
		t.Fatalf("first grant = unit %d, want 0", u)
	}
	if u, ok := lt.grant(0, t0, time.Minute); ok {
		t.Fatalf("slot 0 holding unit 0 was granted unit %d too", u)
	}
	if u := grantOK(t, lt, 1); u != 1 {
		t.Fatalf("second grant = unit %d, want 1", u)
	}
	lt.complete(0)
	if u, returned := lt.release(0); u != 0 || returned {
		t.Fatalf("release after completion = unit %d returned=%v, want unit 0 returned=false", u, returned)
	}
	if u := grantOK(t, lt, 0); u != 2 {
		t.Fatalf("grant after the lease ended = unit %d, want 2", u)
	}
	lt.release(0)
	if u, ok := lt.grant(0, t0, time.Minute); !ok || u != 2 {
		t.Fatalf("re-grant = unit %d ok=%v, want the returned unit 2", u, ok)
	}
	lt.complete(2)
	lt.release(0)
	if _, ok := lt.grant(0, t0, time.Minute); ok {
		t.Fatal("grant succeeded with nothing pending")
	}
}

func TestLeaseMarkDoneSkipsResumedUnits(t *testing.T) {
	lt := newLeaseTable(4, 1)
	lt.markDone(0)
	lt.markDone(2)
	lt.markDone(2) // idempotent
	for _, want := range []int{1, 3} {
		if u := grantOK(t, lt, 0); u != want {
			t.Fatalf("grant over resumed units = unit %d, want %d", u, want)
		}
		lt.complete(want)
		lt.release(0)
	}
	if lt.done != 4 || !lt.settled() {
		t.Fatalf("done = %d settled=%v, want 4 and true", lt.done, lt.settled())
	}
}

// TestLeaseExpiryReturnsUnits: a lease that misses its deadline hands
// back exactly its own slot's unit; a heartbeat keeps the other alive.
func TestLeaseExpiryReturnsUnits(t *testing.T) {
	lt := newLeaseTable(3, 2)
	grantOK(t, lt, 0)
	grantOK(t, lt, 1)
	if got := lt.expired(t0.Add(59 * time.Second)); len(got) != 0 {
		t.Fatalf("lease expired early: slots %v", got)
	}
	lt.heartbeat(1, t0.Add(30*time.Second), time.Minute)
	exp := lt.expired(t0.Add(61 * time.Second))
	if len(exp) != 1 || exp[0] != 0 {
		t.Fatalf("expired slots = %v, want [0]", exp)
	}
	if u, returned := lt.release(0); u != 0 || !returned {
		t.Fatalf("release = unit %d returned=%v, want unit 0 returned", u, returned)
	}
	if lt.state[0] != unitPending || lt.state[1] != unitLeased {
		t.Fatalf("states = %v, want unit 0 pending and unit 1 still leased", lt.state)
	}
	if u, returned := lt.release(0); u != idle || returned {
		t.Fatalf("second release of slot 0 = unit %d returned=%v, want nothing", u, returned)
	}
	// The returned unit is the lowest pending again.
	if u := grantOK(t, lt, 0); u != 0 {
		t.Fatalf("re-grant = unit %d, want 0", u)
	}
}

// TestLeaseDoubleCompletionFirstCommitWins: the re-leased unit coming
// back from both its original worker and its replacement commits once
// and counts one duplicate.
func TestLeaseDoubleCompletionFirstCommitWins(t *testing.T) {
	lt := newLeaseTable(2, 2)
	grantOK(t, lt, 0)
	// Deadline passes; the unit is re-leased to slot 1.
	lt.release(0)
	if u := grantOK(t, lt, 1); u != 0 {
		t.Fatalf("re-lease = unit %d, want 0", u)
	}
	// The slow original worker finishes unit 0 first, then the
	// replacement reports the same unit.
	if st := lt.complete(0); st != Committed {
		t.Fatalf("first completion = %v, want Committed", st)
	}
	if st := lt.complete(0); st != Duplicate {
		t.Fatalf("second completion = %v, want Duplicate", st)
	}
	if lt.dups != 1 {
		t.Fatalf("dups = %d, want 1", lt.dups)
	}
	if lt.done != 1 {
		t.Fatalf("done = %d, want 1 (duplicate must not double-count)", lt.done)
	}
	if _, returned := lt.release(1); returned {
		t.Fatal("release of a committed unit returned it to pending")
	}
}

// TestLeaseExpiryDuringMergeThenLateResult: the shard-merge race — a
// dead worker's shard commits a unit while the unit is already re-leased
// elsewhere; the survivor's later result is a duplicate, dropped.
func TestLeaseExpiryDuringMergeThenLateResult(t *testing.T) {
	lt := newLeaseTable(2, 2)
	grantOK(t, lt, 0)
	lt.release(0) // worker 0 died; its lease collapses
	if u := grantOK(t, lt, 1); u != 0 {
		t.Fatalf("re-lease = unit %d, want 0", u)
	}
	// Shard merge of worker 0 recovers unit 0 while slot 1 runs it.
	if st := lt.complete(0); st != Committed {
		t.Fatalf("shard-merge completion = %v", st)
	}
	// Slot 1 finishes the now-done unit: a duplicate, and its lease ends
	// with nothing returned.
	if st := lt.complete(0); st != Duplicate {
		t.Fatalf("late result of merged unit = %v, want Duplicate", st)
	}
	if _, returned := lt.release(1); returned {
		t.Fatal("release after the duplicate returned the unit")
	}
	if u := grantOK(t, lt, 1); u != 1 {
		t.Fatalf("next grant = unit %d, want 1", u)
	}
	if st := lt.complete(1); st != Committed {
		t.Fatalf("complete(1) = %v", st)
	}
	lt.release(1)
	if !lt.settled() {
		t.Fatal("table not settled after all units done")
	}
	if lt.dups != 1 || lt.done != 2 {
		t.Fatalf("dups=%d done=%d, want 1 and 2", lt.dups, lt.done)
	}
}

// TestLeaseFirstErrorFailsLateSuccessCommits: one reported unit error
// fails the unit — it is never re-leased, the caller reruns it — but a
// late success (a re-leased copy, a shard merge) still commits.
func TestLeaseFirstErrorFailsLateSuccessCommits(t *testing.T) {
	lt := newLeaseTable(1, 2)
	grantOK(t, lt, 0)
	if !lt.fail(0) {
		t.Fatal("first reported error did not fail the unit")
	}
	if lt.fail(0) {
		t.Fatal("second error of a failed unit reported as a new failure")
	}
	if _, returned := lt.release(0); returned {
		t.Fatal("release of a failed unit returned it to pending")
	}
	if got := lt.failedUnits(); len(got) != 1 || got[0] != 0 || lt.failed != 1 {
		t.Fatalf("failedUnits = %v, failed = %d", got, lt.failed)
	}
	if _, ok := lt.grant(1, t0, time.Second); ok {
		t.Fatal("failed unit re-leased")
	}
	if st := lt.complete(0); st != Committed {
		t.Fatalf("late success = %v", st)
	}
	if lt.failed != 0 || len(lt.failedUnits()) != 0 {
		t.Fatalf("failure verdict not retracted: failed=%d", lt.failed)
	}
}
