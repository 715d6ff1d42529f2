package threec

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/rng"
)

func newDM(t testing.TB, size int) *Classifier {
	t.Helper()
	dm, err := cache.NewDirectMapped(size, 32)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(dm)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFirstTouchIsCompulsory(t *testing.T) {
	c := newDM(t, 1024)
	if got := c.Access(0, false); got != Compulsory {
		t.Fatalf("first touch classified %v", got)
	}
	if got := c.Access(0, false); got != Hit {
		t.Fatalf("second touch classified %v", got)
	}
}

func TestPureConflict(t *testing.T) {
	// Two lines aliasing in a DM cache but far under its capacity:
	// after warm-up, every miss is a conflict.
	c := newDM(t, 1024)
	c.Access(0, false)
	c.Access(1024, false)
	for i := 0; i < 20; i++ {
		c.Access(addr.Addr((i%2)*1024), false)
	}
	got := c.Counts()
	if got.Compulsory != 2 {
		t.Fatalf("compulsory = %d, want 2", got.Compulsory)
	}
	if got.Capacity != 0 {
		t.Fatalf("capacity = %d, want 0", got.Capacity)
	}
	if got.Conflict != 20 {
		t.Fatalf("conflict = %d, want 20", got.Conflict)
	}
}

func TestPureCapacity(t *testing.T) {
	// A cyclic working set twice the cache size: after warm-up even the
	// fully-associative reference misses everything (LRU worst case), so
	// the misses are capacity, not conflict.
	const size = 1024
	c := newDM(t, size)
	lines := 2 * size / 32
	for round := 0; round < 4; round++ {
		for i := 0; i < lines; i++ {
			c.Access(addr.Addr(i*32), false)
		}
	}
	got := c.Counts()
	if got.Conflict != 0 {
		t.Fatalf("conflict = %d on a pure streaming loop, want 0", got.Conflict)
	}
	if got.Capacity == 0 {
		t.Fatal("no capacity misses on an oversized loop")
	}
	if got.Compulsory != uint64(lines) {
		t.Fatalf("compulsory = %d, want %d", got.Compulsory, lines)
	}
}

func TestClassPartition(t *testing.T) {
	// Classes partition the accesses for an arbitrary stream.
	c := newDM(t, 2048)
	src := rng.New(3)
	const n = 50000
	for i := 0; i < n; i++ {
		c.Access(addr.Addr(src.Intn(1<<14)), src.Intn(4) == 0)
	}
	got := c.Counts()
	if got.Accesses() != n {
		t.Fatalf("accesses = %d, want %d", got.Accesses(), n)
	}
	if got.Misses() != got.Compulsory+got.Capacity+got.Conflict {
		t.Fatal("class totals do not partition misses")
	}
}

// TestBCacheRemovesOnlyConflicts: the core claim in 3C terms — moving
// from the DM baseline to the B-Cache cuts conflict misses while
// compulsory stays identical.
func TestBCacheRemovesOnlyConflicts(t *testing.T) {
	const size = 16384
	stream := func(c *Classifier) Counts {
		src := rng.New(7)
		for i := 0; i < 300000; i++ {
			var a addr.Addr
			if src.Intn(3) == 0 {
				a = addr.Addr(src.Intn(6) * 13 * 32768) // conflicting blocks
			} else {
				a = addr.Addr(0x100000 + src.Intn(8192)) // hot lines
			}
			c.Access(a, false)
		}
		return c.Counts()
	}
	dm := newDM(t, size)
	bcU, err := core.New(core.Config{SizeBytes: size, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := New(bcU)
	if err != nil {
		t.Fatal(err)
	}
	cDM := stream(dm)
	cBC := stream(bc)
	if cBC.Compulsory != cDM.Compulsory {
		t.Fatalf("compulsory changed: %d vs %d", cBC.Compulsory, cDM.Compulsory)
	}
	if cBC.Conflict*2 > cDM.Conflict {
		t.Fatalf("B-Cache removed under half the conflicts: %d vs %d", cBC.Conflict, cDM.Conflict)
	}
	if cDM.ConflictShare() < 0.5 {
		t.Fatalf("stream not conflict-dominated: share %.2f", cDM.ConflictShare())
	}
}

// TestReferenceMatchesFullyAssoc: the classifier's LRU stack gives,
// access for access, the hit verdict of a fully-associative LRU cache of
// the same capacity, over a stream that touches far more lines than
// either holds.
func TestReferenceMatchesFullyAssoc(t *testing.T) {
	const size, line = 2048, 32
	c := newDM(t, size)
	fa, err := cache.NewFullyAssoc(size, line, cache.LRU, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	hits := 0
	for i := 0; i < 200000; i++ {
		// Lines drawn from 4× the capacity, a third of them from a hot
		// eighth, so the reference both hits and evicts.
		lines := 4 * size / line
		if src.Intn(3) == 0 {
			lines /= 8
		}
		a := addr.Addr(src.Intn(lines)*line + src.Intn(line))
		want := fa.Access(a, src.Intn(4) == 0).Hit
		if got := c.reference(a >> c.blockShift); got != want {
			t.Fatalf("access %d (%#x): reference hit=%v, fully-associative LRU hit=%v", i, a, got, want)
		}
		if want {
			hits++
		}
	}
	if hits == 0 || c.fa.Len() != size/line {
		t.Fatalf("%d hits, %d lines resident: the stream must hit and fill the reference", hits, c.fa.Len())
	}
}

func TestNilCacheRejected(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil cache accepted")
	}
}
