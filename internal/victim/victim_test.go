package victim

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
)

func mustVictim(t testing.TB, size, line, entries int) *Cache {
	t.Helper()
	c, err := New(size, line, entries)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestResolvesSmallConflicts(t *testing.T) {
	// Two lines thrashing one direct-mapped set: the buffer turns the
	// thrash into hits (2 cold misses only).
	c := mustVictim(t, 1024, 32, 4)
	for round := 0; round < 10; round++ {
		for _, a := range []addr.Addr{0, 1024} {
			r := c.Access(a, false)
			if round > 0 && !r.Hit {
				t.Fatalf("round %d: %#x missed with victim buffer", round, a)
			}
		}
	}
	if m := c.Stats().Misses; m != 2 {
		t.Fatalf("misses = %d, want 2", m)
	}
	if c.BufferHits == 0 {
		t.Fatal("no buffer hits recorded")
	}
}

func TestCapacityBound(t *testing.T) {
	// More conflicting lines than buffer entries, visited cyclically:
	// the LRU buffer can't hold them and keeps missing.
	c := mustVictim(t, 1024, 32, 4)
	misses := 0
	for round := 0; round < 20; round++ {
		for blk := 0; blk < 8; blk++ {
			if !c.Access(addr.Addr(blk*1024), false).Hit {
				misses++
			}
		}
	}
	if misses < 8*19 {
		t.Fatalf("cyclic overflow thrash: misses = %d, want ≥ %d", misses, 8*19)
	}
}

func TestSwapSemantics(t *testing.T) {
	c := mustVictim(t, 1024, 32, 2)
	c.Access(0, false)    // main[0] = 0
	c.Access(1024, false) // main[0] = 1024, buf = {0}
	if !c.Contains(0) || !c.Contains(1024) {
		t.Fatal("either line missing after displacement")
	}
	r := c.Access(0, false) // buffer hit: swap back
	if !r.Hit {
		t.Fatal("buffer probe missed")
	}
	// Now 0 is in main, 1024 in buffer; both still resident.
	if !c.Contains(1024) {
		t.Fatal("swapped-out line lost")
	}
}

func TestDirtyPropagation(t *testing.T) {
	c := mustVictim(t, 1024, 32, 1)
	c.Access(0, true)     // dirty in main
	c.Access(1024, false) // 0 → buffer (dirty)
	// Displace the buffer entry entirely.
	c.Access(2048, false) // 1024 → buffer, 0 evicted from buffer
	r := c.Access(3072, false)
	// Each new conflict displaces one buffered line; eventually the dirty
	// line 0 must have left with its dirty bit.
	_ = r
	if c.Stats().Writebacks == 0 {
		t.Fatal("dirty line left the buffer without a writeback")
	}
}

func TestStatsCombined(t *testing.T) {
	c := mustVictim(t, 1024, 32, 4)
	src := rng.New(8)
	for i := 0; i < 10000; i++ {
		c.Access(addr.Addr(src.Intn(1<<14)), src.Intn(4) == 0)
	}
	s := c.Stats()
	if s.Accesses != 10000 || s.Hits+s.Misses != s.Accesses {
		t.Fatalf("stats inconsistent: %+v", s)
	}
	if c.BufferHits > s.Hits {
		t.Fatalf("buffer hits %d exceed total hits %d", c.BufferHits, s.Hits)
	}
}

// TestNeverWorseThanPlainDM: adding a victim buffer can only remove
// misses on these streams (hit set is a superset of the DM hit set in
// practice for swap-based buffers on our generators).
func TestNeverWorseThanPlainDM(t *testing.T) {
	v := mustVictim(t, 4096, 32, 16)
	dm, _ := cache.NewDirectMapped(4096, 32)
	src := rng.New(12)
	for i := 0; i < 100000; i++ {
		a := addr.Addr(src.Intn(1 << 16))
		v.Access(a, false)
		dm.Access(a, false)
	}
	if v.Stats().Misses > dm.Stats().Misses {
		t.Fatalf("victim cache misses %d > plain DM %d", v.Stats().Misses, dm.Stats().Misses)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := New(1024, 32, 0); err == nil {
		t.Fatal("accepted zero-entry buffer")
	}
	if _, err := New(1000, 32, 4); err == nil {
		t.Fatal("accepted non-power-of-two size")
	}
	// The buffer may hold as many lines as the 512-line cache, no more.
	if _, err := New(16384, 32, 512); err != nil {
		t.Fatalf("refused a buffer as large as the cache: %v", err)
	}
	if _, err := New(16384, 32, 513); err == nil {
		t.Fatal("accepted a buffer larger than the cache")
	}
}

func TestReset(t *testing.T) {
	c := mustVictim(t, 1024, 32, 4)
	c.Access(0, false)
	c.Access(1024, false)
	c.Reset()
	if c.Contains(0) || c.Contains(1024) {
		t.Fatal("Reset left lines resident")
	}
	if c.Stats().Accesses != 0 || c.BufferHits != 0 {
		t.Fatal("Reset left counters")
	}
}

func BenchmarkVictimAccess(b *testing.B) {
	c := mustVictim(b, 16384, 32, 16)
	src := rng.New(5)
	addrs := make([]addr.Addr, 4096)
	for i := range addrs {
		addrs[i] = addr.Addr(src.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], false)
	}
}
