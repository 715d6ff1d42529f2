package stackdist

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/rng"
)

// naiveMisses replays blocks against a per-set LRU stack kept as a plain
// slice — the textbook Mattson formulation — and returns, at index w,
// the miss count of a (sets, w) LRU cache for every w in 1..maxWays
// (index 0 is unused). An access at depth d, or a first touch, misses
// every cache of at most d ways.
func naiveMisses(blocks []addr.Addr, sets, maxWays int) []uint64 {
	stacks := make([][]addr.Addr, sets)
	mask := addr.Addr(sets - 1)
	misses := make([]uint64, maxWays+1)
	for _, b := range blocks {
		st := stacks[b&mask]
		depth := -1
		for i, x := range st {
			if x == b {
				depth = i
				break
			}
		}
		for w := 1; w <= maxWays; w++ {
			if depth < 0 || depth >= w {
				misses[w]++
			}
		}
		if depth >= 0 {
			st = append(st[:depth], st[depth+1:]...)
		}
		stacks[b&mask] = append([]addr.Addr{b}, st...)
	}
	return misses
}

// profileBlocks runs blocks through a (sets, MaxWays) Profiler.
func profileBlocks(t *testing.T, blocks []addr.Addr, sets int) *Profiler {
	t.Helper()
	p, err := NewProfiler(sets, MaxWays)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		p.Access(b)
	}
	if got := p.Accesses(); got != uint64(len(blocks)) {
		t.Fatalf("sets=%d: accesses = %d, want %d", sets, got, len(blocks))
	}
	return p
}

// checkMisses checks p's miss count at every ways in 1..MaxWays against
// want, the naiveMisses of the stream p recorded.
func checkMisses(t *testing.T, p *Profiler, want []uint64) {
	t.Helper()
	for ways := 1; ways <= MaxWays; ways++ {
		got, err := p.Misses(ways)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[ways] {
			t.Fatalf("sets=%d ways=%d: misses = %d, want %d", p.Sets(), ways, got, want[ways])
		}
	}
}

// randomBlocks mixes hot reuse with a cold sweep so every distance
// bucket — zero, small, large, and cold — is exercised.
func randomBlocks(n int, seed uint64) []addr.Addr {
	src := rng.New(seed)
	out := make([]addr.Addr, n)
	for i := range out {
		switch src.Intn(4) {
		case 0:
			out[i] = addr.Addr(src.Intn(32)) // hot set
		case 1:
			out[i] = addr.Addr(src.Intn(512))
		default:
			out[i] = addr.Addr(src.Intn(1 << 16)) // mostly cold
		}
	}
	return out
}

func TestProfilerMatchesNaive(t *testing.T) {
	blocks := randomBlocks(20000, 7)
	for _, sets := range []int{1, 2, 16, 64} {
		checkMisses(t, profileBlocks(t, blocks, sets), naiveMisses(blocks, sets, MaxWays))
	}
	if _, err := NewProfiler(8, MaxWays+1); err == nil {
		t.Errorf("NewProfiler accepted %d ways", MaxWays+1)
	}
	if _, err := NewProfile(32, []Geom{{Sets: 8, Ways: MaxWays + 1}}); err == nil {
		t.Errorf("NewProfile accepted a %d-way geometry", MaxWays+1)
	}
}

// FuzzProfilerVsNaive: for any block stream and any set count from 1
// to 64, the profiler's miss count at every ways in 1..MaxWays equals
// the textbook stack replay's. Blocks are bytes, so one set holds up to
// 256 distinct blocks, deeper than MaxWays.
func FuzzProfilerVsNaive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0}, uint8(3), uint8(2))
	f.Add([]byte{7, 7, 9, 200, 7, 9}, uint8(6), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, setBits, salt uint8) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		blocks := make([]addr.Addr, len(raw))
		for i, b := range raw {
			blocks[i] = addr.Addr(b) ^ addr.Addr(salt)<<3
		}
		sets := 1 << (setBits % 7)
		checkMisses(t, profileBlocks(t, blocks, sets), naiveMisses(blocks, sets, MaxWays))
	})
}

// TestProfileInclusionMonotone: at a fixed set count, misses must be
// non-increasing in associativity (LRU inclusion property).
func TestProfileInclusionMonotone(t *testing.T) {
	p, err := NewProfile(32, []Geom{{Sets: 16, Ways: 64}})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	for i := 0; i < 30000; i++ {
		p.Access(addr.Addr(src.Intn(1 << 20)))
	}
	prev := p.Accesses() + 1
	for ways := 1; ways <= 64; ways *= 2 {
		m, err := p.Misses(16, ways)
		if err != nil {
			t.Fatal(err)
		}
		if m > prev {
			t.Fatalf("ways=%d: misses %d > %d at lower associativity", ways, m, prev)
		}
		prev = m
	}
}

func TestProfileSharedGranularity(t *testing.T) {
	p, err := NewProfile(32, []Geom{{Sets: 8, Ways: 2}, {Sets: 8, Ways: 16}, {Sets: 1, Ways: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.profs) != 2 {
		t.Fatalf("profilers = %d, want 2 (sets 8 shared)", len(p.profs))
	}
	if _, err := p.Misses(8, 16); err != nil {
		t.Fatalf("shared granularity lost the larger ways bound: %v", err)
	}
	if _, err := p.Misses(4, 1); err == nil {
		t.Fatal("unprofiled set count did not error")
	}
}

func TestIndexOrder(t *testing.T) {
	ix := NewIndex(4)
	a := ix.Insert(1, 10)
	b := ix.Insert(2, 20)
	c := ix.Insert(3, 30)
	if ix.Len() != 3 || ix.LRU() != a || ix.MRU() != c {
		t.Fatalf("after inserts: len=%d lru=%v mru=%v", ix.Len(), ix.LRU(), ix.MRU())
	}
	ix.Touch(a) // order now (MRU) a c b (LRU)
	if ix.LRU() != b || ix.MRU() != a {
		t.Fatalf("after touch: lru=%v mru=%v", ix.LRU(), ix.MRU())
	}
	if got := ix.Get(2); got != b || got.Val != 20 {
		t.Fatalf("Get(2) = %v", got)
	}
	ix.Remove(b)
	if ix.Len() != 2 || ix.Get(2) != nil || ix.LRU() != c {
		t.Fatalf("after remove: len=%d get2=%v lru=%v", ix.Len(), ix.Get(2), ix.LRU())
	}
	// Recycled node must not alias the removed one's identity.
	d := ix.Insert(4, 40)
	if d.Key != 4 || d.Val != 40 || ix.MRU() != d {
		t.Fatalf("recycled insert = %+v", d)
	}
	ix.Reset()
	if ix.Len() != 0 || ix.LRU() != nil || ix.MRU() != nil {
		t.Fatal("reset left residents")
	}
}

// TestIndexVsMap drives random lookups/inserts/evictions against a
// recency-stamped map model and checks contents plus victim choice.
func TestIndexVsMap(t *testing.T) {
	const capLines = 64
	ix := NewIndex(capLines)
	type ref struct {
		val   uint64
		stamp int
	}
	model := map[addr.Addr]ref{}
	src := rng.New(9)
	clock := 0
	for i := 0; i < 20000; i++ {
		key := addr.Addr(src.Intn(256))
		clock++
		if n := ix.Get(key); n != nil {
			if _, ok := model[key]; !ok {
				t.Fatalf("step %d: index has %d, model does not", i, key)
			}
			ix.Touch(n)
			model[key] = ref{val: n.Val, stamp: clock}
			continue
		}
		if _, ok := model[key]; ok {
			t.Fatalf("step %d: model has %d, index does not", i, key)
		}
		if ix.Len() == capLines {
			victim := ix.LRU()
			var wantKey addr.Addr
			best := clock + 1
			for k, r := range model {
				if r.stamp < best {
					wantKey, best = k, r.stamp
				}
			}
			if victim.Key != wantKey {
				t.Fatalf("step %d: victim %d, want %d", i, victim.Key, wantKey)
			}
			ix.Remove(victim)
			delete(model, wantKey)
		}
		ix.Insert(key, uint64(key)*3)
		model[key] = ref{val: uint64(key) * 3, stamp: clock}
	}
	if ix.Len() != len(model) {
		t.Fatalf("len = %d, want %d", ix.Len(), len(model))
	}
}

// TestProfileVictimGeoms: a victim geometry must be direct-mapped with
// a non-negative buffer, a FIFO profile has none, and a profile of
// victim geometries alone answers every buffer size up to the largest
// requested, from one stack. On one set, lines 0, 2, 4, 0, 2 miss the
// array five times; the last two find their line at depth 1, so they
// hit a 2-entry buffer and miss a 1-entry one.
func TestProfileVictimGeoms(t *testing.T) {
	for _, g := range []Geom{{Sets: 8, Ways: 2, Victim: 4}, {Sets: 8, Ways: 1, Victim: -1}, {Sets: 3, Ways: 1, Victim: 4}} {
		if _, err := NewProfile(32, []Geom{g}); err == nil {
			t.Errorf("NewProfile accepted %+v", g)
		}
	}
	if _, err := NewFIFOProfile(32, []Geom{{Sets: 8, Ways: 1, Victim: 4}}); err == nil {
		t.Error("NewFIFOProfile accepted a victim geometry")
	}
	p, err := NewProfile(1, []Geom{{Sets: 2, Ways: 1, Victim: 2}, {Sets: 2, Ways: 1, Victim: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []addr.Addr{0, 2, 4, 0, 2} {
		p.Access(a)
	}
	for _, c := range []struct{ entries, misses, hits int }{{1, 5, 0}, {2, 3, 2}} {
		m, h, err := p.VictimMisses(2, c.entries)
		if err != nil || m != uint64(c.misses) || h != uint64(c.hits) {
			t.Errorf("victim%d: %d misses, %d buffer hits (%v), want %d and %d", c.entries, m, h, err, c.misses, c.hits)
		}
	}
	if _, _, err := p.VictimMisses(2, 3); err == nil {
		t.Error("a 3-entry buffer answered beyond the deepest request")
	}
	if _, _, err := p.VictimMisses(4, 1); err == nil {
		t.Error("an unprofiled set count answered")
	}
	if _, err := p.Misses(2, 1); err == nil {
		t.Error("a victim geometry answered as an LRU one")
	}
}
