package stackdist

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/rng"
)

// naiveMisses replays blocks against a per-set LRU stack kept as a plain
// slice — the textbook Mattson formulation — and returns the miss count
// for a (sets, ways) LRU cache.
func naiveMisses(blocks []addr.Addr, sets, ways int) uint64 {
	stacks := make([][]addr.Addr, sets)
	mask := addr.Addr(sets - 1)
	var misses uint64
	for _, b := range blocks {
		st := stacks[b&mask]
		depth := -1
		for i, x := range st {
			if x == b {
				depth = i
				break
			}
		}
		if depth < 0 {
			misses++ // cold
		} else {
			if depth >= ways {
				misses++
			}
			st = append(st[:depth], st[depth+1:]...)
		}
		stacks[b&mask] = append([]addr.Addr{b}, st...)
	}
	return misses
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
	for _, deep := range []bool{false, true} {
		for _, sets := range []int{1, 2, 16, 64} {
			p, err := newProfiler(sets, 64, deep)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range blocks {
				p.Access(b)
			}
			if got := p.Accesses(); got != uint64(len(blocks)) {
				t.Fatalf("sets=%d: accesses = %d, want %d", sets, got, len(blocks))
			}
			for _, ways := range []int{1, 2, 3, 8, 64} {
				got, err := p.Misses(ways)
				if err != nil {
					t.Fatal(err)
				}
				if want := naiveMisses(blocks, sets, ways); got != want {
					t.Errorf("deep=%v sets=%d ways=%d: misses = %d, want %d", deep, sets, ways, got, want)
				}
			}
		}
	}
}

// TestShallowVsDeepEngines runs the move-to-front array engine against
// the map+Fenwick engine on identical streams: every miss count at every
// associativity must agree (the shallow engine merges cold into over,
// which Misses sums anyway), and so must each set's most recent block
// before every access, which the victim levels read.
func TestShallowVsDeepEngines(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		blocks := randomBlocks(30000, seed)
		for _, sets := range []int{1, 4, 32} {
			shallow, err := newProfiler(sets, 64, false)
			if err != nil {
				t.Fatal(err)
			}
			deep, err := newProfiler(sets, 64, true)
			if err != nil {
				t.Fatal(err)
			}
			if shallow.stk == nil || deep.stk != nil {
				t.Fatal("engine selection broken")
			}
			for i, b := range blocks {
				// The victim levels read each set's most recent block.
				sb, sok := shallow.recent(b)
				db, dok := deep.recent(b)
				if sb != db || sok != dok {
					t.Fatalf("seed=%d sets=%d access %d: recent shallow (%d, %v) != deep (%d, %v)", seed, sets, i, sb, sok, db, dok)
				}
				shallow.Access(b)
				deep.Access(b)
			}
			for ways := 1; ways <= 64; ways *= 2 {
				s, err1 := shallow.Misses(ways)
				d, err2 := deep.Misses(ways)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if s != d {
					t.Errorf("seed=%d sets=%d ways=%d: shallow %d != deep %d", seed, sets, ways, s, d)
				}
			}
		}
	}
}

// TestProfilerCompaction drives one set far past any initial axis
// capacity with heavy re-access (live count stays small while time slots
// burn fast), forcing many compactions, and checks exactness survives.
// The deep engine is forced: 32 tracked ways would otherwise select the
// shallow engine, which has no axis to compact.
func TestProfilerCompaction(t *testing.T) {
	src := rng.New(11)
	blocks := make([]addr.Addr, 50000)
	for i := range blocks {
		blocks[i] = addr.Addr(src.Intn(24)) // ≤24 live blocks, one set
	}
	p, err := newProfiler(1, 32, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		p.Access(b)
	}
	for _, ways := range []int{1, 4, 16, 24, 32} {
		got, err := p.Misses(ways)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveMisses(blocks, 1, ways); got != want {
			t.Errorf("ways=%d: misses = %d, want %d", ways, got, want)
		}
	}
}

// TestProfileInclusionMonotone: at a fixed set count, misses must be
// non-increasing in associativity (LRU inclusion property).
func TestProfileInclusionMonotone(t *testing.T) {
	p, err := NewProfile(32, []Geom{{Sets: 16, Ways: 128}})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	for i := 0; i < 30000; i++ {
		p.Access(addr.Addr(src.Intn(1 << 20)))
	}
	prev := p.Accesses() + 1
	for ways := 1; ways <= 128; ways *= 2 {
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
