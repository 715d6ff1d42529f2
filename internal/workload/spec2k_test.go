package workload

import (
	"sync"
	"testing"

	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/trace"
)

// This file asserts the per-benchmark calibration facts of DESIGN.md §5 —
// the qualitative behaviours the paper reports that the surrogates must
// honour. Each test drives the relevant cache models directly so a
// profile regression is caught here rather than in a full figure run.

const calInstr = 400_000

// calStreams memoizes each benchmark's data accesses over its first
// calInstr instructions: the calibration tests replay one stream
// against several caches, so each stream is generated once per test
// binary instead of once per cache.
var calStreams struct {
	mu sync.Mutex
	m  map[string][]cache.MemAccess // guarded by mu
}

func calStream(t testing.TB, name string) []cache.MemAccess {
	t.Helper()
	calStreams.mu.Lock()
	defer calStreams.mu.Unlock()
	if accs, ok := calStreams.m[name]; ok {
		return accs
	}
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, calInstr)
	g.Fill(recs)
	var accs []cache.MemAccess
	for _, r := range recs {
		if r.Kind.IsMem() {
			accs = append(accs, cache.NewMemAccess(r.Mem, r.Kind == trace.Store))
		}
	}
	if calStreams.m == nil {
		calStreams.m = map[string][]cache.MemAccess{}
	}
	calStreams.m[name] = accs
	return accs
}

// dcacheMisses runs the benchmark's data stream through c.
func dcacheMisses(t testing.TB, name string, c cache.Cache) (misses, accesses uint64) {
	t.Helper()
	for _, m := range calStream(t, name) {
		c.Access(m.Addr(), m.Write())
	}
	return c.Stats().Misses, c.Stats().Accesses
}

func dmCache(t testing.TB) *cache.SetAssoc {
	t.Helper()
	c, err := cache.NewDirectMapped(16*1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func bCache(t testing.TB, mf int) *core.BCache {
	t.Helper()
	c, err := core.New(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: mf, BAS: 8, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func wayCache(t testing.TB, ways int) *cache.SetAssoc {
	t.Helper()
	c, err := cache.NewSetAssoc(16*1024, 32, ways, cache.LRU, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// redVs computes 1 - misses(c)/misses(dm) for one benchmark.
func redVs(t testing.TB, name string, c cache.Cache) float64 {
	t.Helper()
	dm := dmCache(t)
	base, _ := dcacheMisses(t, name, dm)
	m, _ := dcacheMisses(t, name, c)
	if base == 0 {
		t.Fatalf("%s produced no baseline misses", name)
	}
	return 1 - float64(m)/float64(base)
}

// TestStreamersAssociativityInsensitive: art, lucas, swim, mcf miss
// uniformly; 8 ways must recover less than 25% of their misses
// (paper Table 7: no frequent-miss sets to fix).
func TestStreamersAssociativityInsensitive(t *testing.T) {
	for _, name := range []string{"art", "lucas", "swim", "mcf"} {
		if r := redVs(t, name, wayCache(t, 8)); r > 0.25 {
			t.Errorf("%s: 8-way recovers %.1f%% of misses; should be capacity-bound", name, 100*r)
		}
	}
}

// TestEquakeConflictBound: equake's misses are mostly recoverable
// conflicts — the paper's headline (>80% reduction available).
func TestEquakeConflictBound(t *testing.T) {
	if r := redVs(t, "equake", wayCache(t, 8)); r < 0.6 {
		t.Errorf("equake: 8-way recovers only %.1f%%; should be conflict-bound", 100*r)
	}
	if r := redVs(t, "equake", bCache(t, 8)); r < 0.5 {
		t.Errorf("equake: B-Cache recovers only %.1f%%", 100*r)
	}
}

// TestCrafty8WayBeats4Way: crafty and fma3d need 8 ways (paper §4.3.1:
// "more than a 10% miss rate reduction over a 4-way").
func TestCrafty8WayBeats4Way(t *testing.T) {
	for _, name := range []string{"crafty", "fma3d"} {
		r4 := redVs(t, name, wayCache(t, 4))
		r8 := redVs(t, name, wayCache(t, 8))
		if r8-r4 < 0.10 {
			t.Errorf("%s: 8-way (%.1f%%) not ≥10 points over 4-way (%.1f%%)", name, 100*r8, 100*r4)
		}
	}
}

// TestPerlbmk32WayKeepsGaining: perlbmk's conflict degree exceeds 8
// (paper §4.3.1: 32-way shows a 20% improvement over 8-way there).
func TestPerlbmk32WayKeepsGaining(t *testing.T) {
	r8 := redVs(t, "perlbmk", wayCache(t, 8))
	r32 := redVs(t, "perlbmk", wayCache(t, 32))
	if r32-r8 < 0.10 {
		t.Errorf("perlbmk: 32-way (%.1f%%) not clearly over 8-way (%.1f%%)", 100*r32, 100*r8)
	}
}

// TestWupwisePDHostile: wupwise's conflicts defeat the PD at MF ≤ 32
// (Figure 3) and fit a 16-entry victim buffer (§6.6).
func TestWupwisePDHostile(t *testing.T) {
	bc := bCache(t, 8)
	base := dmCache(t)
	bm, _ := dcacheMisses(t, "wupwise", base)
	m, _ := dcacheMisses(t, "wupwise", bc)
	r4 := redVs(t, "wupwise", wayCache(t, 4))
	rBC := 1 - float64(m)/float64(bm)
	if rBC >= r4 {
		t.Errorf("wupwise: B-Cache (%.1f%%) not below 4-way (%.1f%%)", 100*rBC, 100*r4)
	}
	if hr := bc.PDStats().HitRateDuringMiss(); hr < 0.5 {
		t.Errorf("wupwise PD hit rate during misses = %.2f, want the collision signature", hr)
	}
	// MF=64 breaks the collision (the Figure 3 cliff).
	bc64 := bCache(t, 64)
	m64, _ := dcacheMisses(t, "wupwise", bc64)
	if m64 >= m {
		t.Errorf("wupwise: MF=64 (%d misses) did not beat MF=8 (%d)", m64, m)
	}
}

// TestMilderPDHostileVariants: galgel, facerec, sixtrack carry milder
// low-tag-bit collisions — B-Cache MF=8 below 4-way on each.
func TestMilderPDHostileVariants(t *testing.T) {
	for _, name := range []string{"galgel", "facerec", "sixtrack"} {
		rBC := redVs(t, name, bCache(t, 8))
		r4 := redVs(t, name, wayCache(t, 4))
		if rBC >= r4 {
			t.Errorf("%s: B-Cache (%.1f%%) not below 4-way (%.1f%%)", name, 100*rBC, 100*r4)
		}
	}
}

// TestBCacheBetween4And8WayOnAverage: the headline claim over all 26
// benchmarks (paper §4.3.3).
func TestBCacheBetween4And8WayOnAverage(t *testing.T) {
	var sum4, sum8, sumBC float64
	all := All()
	for _, p := range all {
		sum4 += redVs(t, p.Name, wayCache(t, 4))
		sum8 += redVs(t, p.Name, wayCache(t, 8))
		sumBC += redVs(t, p.Name, bCache(t, 8))
	}
	n := float64(len(all))
	a4, a8, aBC := sum4/n, sum8/n, sumBC/n
	if aBC < a4*0.8 {
		t.Errorf("average B-Cache reduction %.1f%% well below 4-way %.1f%%", 100*aBC, 100*a4)
	}
	if aBC > a8 {
		t.Errorf("average B-Cache reduction %.1f%% above 8-way %.1f%% (upper bound)", 100*aBC, 100*a8)
	}
}

// TestSeedIsolation: two benchmarks must not share streams even though
// they share the builder machinery.
func TestSeedIsolation(t *testing.T) {
	g1, _ := New(mustProfile(t, "apsi"))
	g2, _ := New(mustProfile(t, "mesa"))
	same := 0
	for i := 0; i < 1000; i++ {
		r1, _ := g1.Next()
		r2, _ := g2.Next()
		if r1 == r2 {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("profiles apsi and mesa share %d/1000 records", same)
	}
}
