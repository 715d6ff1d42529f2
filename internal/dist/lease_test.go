package dist

import (
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func TestLeaseGrantContiguousAndChunked(t *testing.T) {
	lt := newLeaseTable(10)
	l1, ok := lt.grant(0, 4, t0, time.Minute)
	if !ok || l1.Start != 0 || l1.End != 4 || l1.Worker != 0 {
		t.Fatalf("first grant = %+v ok=%v", l1, ok)
	}
	l2, ok := lt.grant(1, 4, t0, time.Minute)
	if !ok || l2.Start != 4 || l2.End != 8 {
		t.Fatalf("second grant = %+v ok=%v", l2, ok)
	}
	l3, ok := lt.grant(0, 4, t0, time.Minute)
	if !ok || l3.Start != 8 || l3.End != 10 {
		t.Fatalf("third grant = %+v ok=%v (should clip at the unit space)", l3, ok)
	}
	if _, ok := lt.grant(1, 4, t0, time.Minute); ok {
		t.Fatal("grant succeeded with nothing pending")
	}
	if l1.ID >= l2.ID || l2.ID >= l3.ID {
		t.Fatalf("lease IDs not increasing: %d %d %d", l1.ID, l2.ID, l3.ID)
	}
}

func TestLeaseMarkDoneSkipsResumedUnits(t *testing.T) {
	lt := newLeaseTable(6)
	lt.markDone(1)
	lt.markDone(2)
	lt.markDone(2) // idempotent
	l, ok := lt.grant(0, 10, t0, time.Minute)
	if !ok || l.Start != 0 || l.End != 1 {
		t.Fatalf("grant over resumed units = %+v (want the 0..1 gap)", l)
	}
	l, ok = lt.grant(0, 10, t0, time.Minute)
	if !ok || l.Start != 3 || l.End != 6 {
		t.Fatalf("second grant = %+v (want 3..6)", l)
	}
	if lt.done != 2 {
		t.Fatalf("done = %d, want 2", lt.done)
	}
}

// TestLeaseExpiryReturnsUnits: a lease that misses its deadline hands
// its unfinished units back; completed units stay completed.
func TestLeaseExpiryReturnsUnits(t *testing.T) {
	lt := newLeaseTable(8)
	l, _ := lt.grant(0, 8, t0, time.Minute)
	if got := lt.expired(t0.Add(59 * time.Second)); len(got) != 0 {
		t.Fatalf("lease expired early: %v", got)
	}
	if st := lt.complete(3); st != Committed {
		t.Fatalf("complete(3) = %v", st)
	}
	exp := lt.expired(t0.Add(61 * time.Second))
	if len(exp) != 1 || exp[0].ID != l.ID {
		t.Fatalf("expired = %v, want lease %d", exp, l.ID)
	}
	if returned := lt.release(l.ID); returned != 7 {
		t.Fatalf("release returned %d units, want 7 (unit 3 already done)", returned)
	}
	// The returned units are grantable again; the done one is not.
	l2, ok := lt.grant(1, 8, t0, time.Minute)
	if !ok || l2.Start != 0 || l2.End != 3 {
		t.Fatalf("re-grant = %+v, want 0..3 stopping at the done unit", l2)
	}
}

// TestLeaseDoubleCompletionFirstCommitWins: the re-leased unit coming
// back from both its original worker and its replacement commits once
// and counts one duplicate.
func TestLeaseDoubleCompletionFirstCommitWins(t *testing.T) {
	lt := newLeaseTable(4)
	l1, _ := lt.grant(0, 2, t0, time.Second)
	_ = l1
	// Deadline passes; units re-leased to worker 1.
	lt.release(l1.ID)
	l2, _ := lt.grant(1, 2, t0.Add(2*time.Second), time.Second)
	if l2.Start != 0 || l2.End != 2 {
		t.Fatalf("re-lease = %+v", l2)
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
}

// TestLeaseExpiryDuringMergeThenLateResult: the shard-merge race — a
// dead worker's shard commits a unit while the unit is already re-leased
// elsewhere; the survivor's later result is a duplicate, dropped.
func TestLeaseExpiryDuringMergeThenLateResult(t *testing.T) {
	lt := newLeaseTable(3)
	l1, _ := lt.grant(0, 3, t0, time.Second)
	lt.release(l1.ID) // worker 0 died; its lease collapses
	l2, _ := lt.grant(1, 3, t0, time.Second)
	// Shard merge of worker 0 recovers unit 1 mid-way through lease 2.
	if st := lt.complete(1); st != Committed {
		t.Fatalf("shard-merge completion = %v", st)
	}
	// Worker 1 executes its whole lease, including the now-done unit 1.
	if st := lt.complete(0); st != Committed {
		t.Fatalf("complete(0) = %v", st)
	}
	if st := lt.complete(1); st != Duplicate {
		t.Fatalf("late result of merged unit = %v, want Duplicate", st)
	}
	if st := lt.complete(2); st != Committed {
		t.Fatalf("complete(2) = %v", st)
	}
	lt.release(l2.ID)
	if !lt.settled() {
		t.Fatal("table not settled after all units done")
	}
	if lt.dups != 1 || lt.done != 3 {
		t.Fatalf("dups=%d done=%d, want 1 and 3", lt.dups, lt.done)
	}
}

// TestLeaseFirstErrorFailsLateSuccessCommits: one reported unit error
// fails the unit — it is never re-leased, the caller reruns it — but a
// late success (a re-leased copy, a shard merge) still commits.
func TestLeaseFirstErrorFailsLateSuccessCommits(t *testing.T) {
	lt := newLeaseTable(2)
	lt.grant(0, 2, t0, time.Second)
	if !lt.fail(0) {
		t.Fatal("first reported error did not fail the unit")
	}
	if lt.fail(0) {
		t.Fatal("second error of a failed unit reported as a new failure")
	}
	if got := lt.failedUnits(); len(got) != 1 || got[0] != 0 || lt.failed != 1 {
		t.Fatalf("failedUnits = %v, failed = %d", got, lt.failed)
	}
	if _, ok := lt.grant(1, 2, t0, time.Second); ok {
		t.Fatal("failed unit re-leased")
	}
	if st := lt.complete(0); st != Committed {
		t.Fatalf("late success = %v", st)
	}
	if lt.failed != 0 || len(lt.failedUnits()) != 0 {
		t.Fatalf("failure verdict not retracted: failed=%d", lt.failed)
	}
}

func TestLeaseReleaseWorkerReclaimsAllLeases(t *testing.T) {
	lt := newLeaseTable(8)
	lt.grant(0, 2, t0, time.Minute)
	lt.grant(1, 2, t0, time.Minute)
	lt.grant(0, 2, t0, time.Minute)
	if returned := lt.releaseWorker(0); returned != 4 {
		t.Fatalf("releaseWorker(0) returned %d, want 4", returned)
	}
	if returned := lt.releaseWorker(0); returned != 0 {
		t.Fatalf("second releaseWorker(0) returned %d, want 0", returned)
	}
	if got := lt.unfinished(); got != 8 {
		t.Fatalf("unfinished = %d, want 8 (worker 1's units are still leased)", got)
	}
}
