package altcache

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
)

// ---- AGAC ----

func newAGAC(t testing.TB, size int) *AGAC {
	t.Helper()
	c, err := NewAGAC(size, 32, 32, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAGACResolvesConflictsViaHoles(t *testing.T) {
	// Two lines thrash one set while most sets idle: AGAC relocates one
	// into a hole and both stay resident.
	c := newAGAC(t, 4096)
	misses := 0
	for round := 0; round < 200; round++ {
		for _, a := range []addr.Addr{0, 4096} {
			if !c.Access(a, false).Hit {
				misses++
			}
		}
	}
	if misses > 20 {
		t.Fatalf("AGAC missed %d times on a 2-line thrash with idle holes", misses)
	}
	if c.Relocations == 0 || c.RelocatedHits == 0 {
		t.Fatalf("no relocation activity: %d relocations, %d relocated hits", c.Relocations, c.RelocatedHits)
	}
}

func TestAGACRelocatedHitsCostExtra(t *testing.T) {
	c := newAGAC(t, 4096)
	for round := 0; round < 10; round++ {
		c.Access(0, false)
		c.Access(4096, false)
	}
	// One of the two now lives out of position; find it.
	sawExtra := false
	for _, a := range []addr.Addr{0, 4096} {
		r := c.Access(a, false)
		if r.Hit && r.ExtraLatency == 2 {
			sawExtra = true
		}
	}
	if !sawExtra {
		t.Fatal("no 3-cycle relocated hit observed")
	}
}

func TestAGACContains(t *testing.T) {
	c := newAGAC(t, 4096)
	src := rng.New(4)
	for i := 0; i < 20000; i++ {
		a := addr.Addr(src.Intn(1 << 15))
		want := c.Contains(a)
		got := c.Access(a, false).Hit
		if want != got {
			t.Fatalf("Contains/Access disagree on %#x at step %d", a, i)
		}
	}
}

func TestAGACBeatsDirectMapped(t *testing.T) {
	agac := newAGAC(t, 4096)
	dm, _ := cache.NewDirectMapped(4096, 32)
	src := rng.New(6)
	for i := 0; i < 100000; i++ {
		var a addr.Addr
		if src.Intn(3) == 0 {
			a = addr.Addr(src.Intn(4) * 4096) // conflicting quartet
		} else {
			a = addr.Addr(0x40000 + src.Intn(1024)) // hot lines
		}
		agac.Access(a, false)
		dm.Access(a, false)
	}
	if agac.Stats().Misses >= dm.Stats().Misses {
		t.Fatalf("AGAC (%d misses) no better than DM (%d)", agac.Stats().Misses, dm.Stats().Misses)
	}
}

func TestAGACValidation(t *testing.T) {
	if _, err := NewAGAC(4096, 32, 0, 100); err == nil {
		t.Fatal("zero directory accepted")
	}
	if _, err := NewAGAC(4096, 32, 16, 0); err == nil {
		t.Fatal("zero epoch accepted")
	}
}

// TestAGACHoleScanMatchesModulo: the hole scan and the epoch tick, which
// wrap with a mask and count down to a deadline, pick the same hole and
// clear the reference bits at the same accesses as the modulo forms
// they replace: the first unreferenced set other than s from tick mod
// sets onwards, and a clear whenever tick is a multiple of the epoch,
// before and after Reset.
func TestAGACHoleScanMatchesModulo(t *testing.T) {
	c, err := NewAGAC(1024, 32, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	n := c.geom.Sets
	for round := 0; round < 2; round++ {
		for step := 1; step <= 100; step++ {
			for i := range c.refBits {
				c.refBits[i] = src.Intn(4) != 0
			}
			c.tickEpoch()
			cleared := true
			for _, r := range c.refBits {
				cleared = cleared && !r
			}
			if want := c.tick%7 == 0; cleared != want {
				t.Fatalf("round %d tick %d: reference bits cleared %v, want %v", round, c.tick, cleared, want)
			}
			for i := range c.refBits {
				c.refBits[i] = src.Intn(4) != 0
			}
			s := src.Intn(n)
			want := -1
			for i := 0; i < n; i++ {
				if h := (int(c.tick) + i) % n; h != s && !c.refBits[h] {
					want = h
					break
				}
			}
			if got := c.findHole(s); got != want {
				t.Fatalf("round %d tick %d set %d: findHole %d, modulo scan %d", round, c.tick, s, got, want)
			}
		}
		c.Reset()
	}
}

func TestAGACReset(t *testing.T) {
	c := newAGAC(t, 4096)
	c.Access(0, false)
	c.Access(4096, false)
	c.Reset()
	if c.Contains(0) || c.Relocations != 0 || c.Stats().Accesses != 0 {
		t.Fatal("Reset incomplete")
	}
}

// ---- PSA ----

func newPSA(t testing.TB, size int) *PSA {
	t.Helper()
	c, err := NewPSA(size, 32, 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPSAPredictsSteadyPattern(t *testing.T) {
	// After warm-up, a stable reference pattern should be predicted
	// almost perfectly (steering bits learn the probe order).
	c := newPSA(t, 4096)
	for round := 0; round < 100; round++ {
		c.Access(0, false)
		c.Access(4096, false) // rehashed to the alternate set
	}
	if rate := c.PredictionRate(); rate < 0.9 {
		t.Fatalf("steady-pattern prediction rate %.2f, want ≥ 0.9", rate)
	}
}

func TestPSASecondProbeCostsCycle(t *testing.T) {
	c := newPSA(t, 4096)
	c.Access(0, false)
	c.Access(4096, false) // demotes 0 to the alternate set
	// First re-access of 0 may mispredict (steering points at natural
	// position where 4096 now lives... natural holds 4096, 0 is rehashed).
	r := c.Access(0, false)
	if !r.Hit {
		t.Fatal("resident line missed")
	}
	if r.ExtraLatency != 1 {
		t.Fatalf("mispredicted hit had ExtraLatency %d, want 1", r.ExtraLatency)
	}
	// The steering bit flipped: next access predicts right.
	r = c.Access(0, false)
	if !r.Hit || r.ExtraLatency != 0 {
		t.Fatalf("steering did not learn: hit=%v extra=%d", r.Hit, r.ExtraLatency)
	}
}

func TestPSAMissRateLikeColumn(t *testing.T) {
	// PSA's replacement is column-associative; miss counts should be
	// close on the same stream.
	psa := newPSA(t, 4096)
	col, _ := NewColumn(4096, 32)
	src := rng.New(8)
	for i := 0; i < 100000; i++ {
		var a addr.Addr
		if src.Intn(4) == 0 {
			a = addr.Addr(src.Intn(6) * 4096)
		} else {
			a = addr.Addr(0x40000 + src.Intn(2048))
		}
		psa.Access(a, false)
		col.Access(a, false)
	}
	mp, mc := float64(psa.Stats().Misses), float64(col.Stats().Misses)
	if mp > mc*1.2 || mp < mc*0.8 {
		t.Fatalf("PSA misses %v not within 20%% of column-associative %v", mp, mc)
	}
}

func TestPSAValidation(t *testing.T) {
	if _, err := NewPSA(4096, 32, 0); err == nil {
		t.Fatal("zero steering bits accepted")
	}
	if _, err := NewPSA(32, 32, 4); err == nil {
		t.Fatal("single-set cache accepted")
	}
}

// ---- PAM ----

func newPAM(t testing.TB, ways int) *PAM {
	t.Helper()
	c, err := NewPAM(16*1024, 32, ways, 5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPAMMissBehaviourMatchesSetAssoc(t *testing.T) {
	// The PAD affects only latency, never hit/miss: PAM must track a
	// conventional LRU set-associative cache access for access.
	pam := newPAM(t, 4)
	sa, _ := cache.NewSetAssoc(16*1024, 32, 4, cache.LRU, nil)
	src := rng.New(13)
	for i := 0; i < 100000; i++ {
		a := addr.Addr(src.Intn(1 << 18))
		w := src.Intn(5) == 0
		rp := pam.Access(a, w)
		rs := sa.Access(a, w)
		if rp.Hit != rs.Hit {
			t.Fatalf("access %d (%#x): PAM hit=%v, set-assoc hit=%v", i, a, rp.Hit, rs.Hit)
		}
	}
}

func TestPAMMostHitsFast(t *testing.T) {
	// With 5 partial bits and 4 ways, partial collisions are rare: the
	// overwhelming majority of hits must be single-cycle (the design's
	// point).
	pam := newPAM(t, 4)
	src := rng.New(14)
	for i := 0; i < 100000; i++ {
		var a addr.Addr
		if src.Intn(3) == 0 {
			a = addr.Addr(src.Intn(4) * 16384)
		} else {
			a = addr.Addr(0x100000 + src.Intn(4096))
		}
		pam.Access(a, false)
	}
	if rate := pam.FastHitRate(); rate < 0.85 {
		t.Fatalf("fast-hit rate %.2f, want ≥ 0.85", rate)
	}
}

func TestPAMPartialCollisionSlows(t *testing.T) {
	// Two resident lines whose tags share their low 5 bits force the
	// second cycle on hits.
	pam := newPAM(t, 2)
	a := addr.Addr(0)
	b := a + 16384*32 // tag differs by 32: low 5 tag bits equal
	pam.Access(a, false)
	pam.Access(b, false)
	r := pam.Access(a, false)
	if !r.Hit || r.ExtraLatency != 1 {
		t.Fatalf("partial-collision hit: hit=%v extra=%d, want slow hit", r.Hit, r.ExtraLatency)
	}
	if pam.SlowHits == 0 {
		t.Fatal("no slow hits counted")
	}
}

func TestPAMValidation(t *testing.T) {
	if _, err := NewPAM(16*1024, 32, 1, 5); err == nil {
		t.Fatal("direct-mapped PAM accepted")
	}
	if _, err := NewPAM(16*1024, 32, 4, 0); err == nil {
		t.Fatal("zero partial bits accepted")
	}
	if _, err := NewPAM(16*1024, 32, 4, 30); err == nil {
		t.Fatal("partial width ≥ tag width accepted")
	}
}

func TestPAMReset(t *testing.T) {
	pam := newPAM(t, 2)
	pam.Access(0, false)
	pam.Reset()
	if pam.Contains(0) || pam.FastHits != 0 || pam.Stats().Accesses != 0 {
		t.Fatal("Reset incomplete")
	}
}

// ---- Way halting ----

func TestWayHaltMatchesSetAssoc(t *testing.T) {
	// Halting affects energy only: hit/miss identical to 4-way LRU.
	wh, err := NewWayHalt(16*1024, 32, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := cache.NewSetAssoc(16*1024, 32, 4, cache.LRU, nil)
	src := rng.New(21)
	for i := 0; i < 100000; i++ {
		a := addr.Addr(src.Intn(1 << 18))
		w := src.Intn(5) == 0
		if wh.Access(a, w).Hit != sa.Access(a, w).Hit {
			t.Fatalf("way-halting diverged from 4-way at %#x", a)
		}
	}
}

func TestWayHaltSavesActivations(t *testing.T) {
	// With 4 halt bits, random tags collide with probability 1/16: the
	// average active ways should be far below 4 (≈1 + 3/16 when full).
	wh, err := NewWayHalt(16*1024, 32, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(22)
	for i := 0; i < 200000; i++ {
		wh.Access(addr.Addr(src.Intn(1<<20)), false)
	}
	if avg := wh.AvgWaysActive(); avg > 2.0 {
		t.Fatalf("avg ways active = %.2f, want well below 4", avg)
	}
	if avg := wh.AvgWaysActive(); avg <= 0 {
		t.Fatalf("no activations recorded")
	}
}

func TestWayHaltValidation(t *testing.T) {
	if _, err := NewWayHalt(16*1024, 32, 1, 4); err == nil {
		t.Fatal("direct-mapped way-halting accepted")
	}
	if _, err := NewWayHalt(16*1024, 32, 4, 0); err == nil {
		t.Fatal("zero halt bits accepted")
	}
}

func TestWayHaltReset(t *testing.T) {
	wh, _ := NewWayHalt(16*1024, 32, 4, 4)
	wh.Access(0, false)
	wh.Reset()
	if wh.Contains(0) || wh.WayActivations != 0 || wh.Stats().Accesses != 0 {
		t.Fatal("Reset incomplete")
	}
}
