// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Simulation results must be bit-for-bit reproducible across machines and
// Go releases (math/rand's algorithm and seeding have changed between
// versions), so the simulator carries its own generator: SplitMix64 for
// seeding and xoshiro256** for the stream, per Blackman & Vigna.
package rng

import "math"

// Source is a deterministic xoshiro256** generator.
// The zero value is not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, so that nearby
// seeds still produce uncorrelated streams.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Split derives an independent child generator from r's current state and
// the given stream number without consuming any values from r: the same
// (state, stream) pair always yields the same child, and distinct streams
// yield uncorrelated children. Sharded simulations use this to give each
// shard (e.g. each cache set) its own deterministic stream, so results do
// not depend on the order shards happen to draw in.
func (r *Source) Split(stream uint64) *Source {
	// Fold the parent state and the stream number through SplitMix64 (via
	// New), mixing the stream with the golden-ratio increment so that
	// consecutive stream numbers land far apart in seed space.
	seed := r.s[0]
	seed = rotl(seed, 23) ^ r.s[1]
	seed = rotl(seed, 19) ^ r.s[2]
	seed = rotl(seed, 17) ^ r.s[3]
	return New(seed ^ (stream+1)*0x9E3779B97F4A7C15)
}

// Uint64 returns the next value in the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns a uniform 32-bit value.
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift reduction without its rejection step: the
	// bias is below n/2^32, negligible for simulation n (always ≪ 2^32),
	// and it costs one multiply instead of a division. Every workload
	// stream depends on this exact mapping, so it stays as it is.
	return int((uint64(r.Uint32()) * uint64(n)) >> 32)
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold returns the integer form of the test Float64() < p:
// r.Below(Threshold(p)) draws the same value and gives the same answer
// for every state of r. Float64 is k/2^53 for the integer k =
// Uint64()>>11, and p·2^53 is exact in float64 (scaling by a power of
// two), so k/2^53 < p holds exactly when k < ceil(p·2^53). The result
// lies in [0, 2^53]: 0 never passes (p ≤ 0 or NaN), 2^53 always does.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below draws one value and reports whether it falls under the
// threshold t: r.Below(Threshold(p)) is r.Float64() < p.
func (r *Source) Below(t uint64) bool { return r.Uint64()>>11 < t }

// Until makes Below(t) draws until one passes or limit draws are made,
// and returns how many it made and whether the last one passed: the
// same draws, in the same order, as a loop of up to limit Below calls
// that stops at the first pass. The generator state stays in locals
// across the draws. A limit ≤ 0 draws nothing.
func (r *Source) Until(t uint64, limit int) (n int, hit bool) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for n < limit {
		// One Uint64 step, inlined.
		result := rotl(s1*5, 7) * 9
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = rotl(s3, 45)
		n++
		if result>>11 < t {
			hit = true
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return n, hit
}

// geometricOne is the GeometricT threshold of a mean ≤ 1: the sample is
// 1 and nothing is drawn. Real thresholds never exceed 2^53.
const geometricOne = math.MaxUint64

// geometricCap bounds a geometric sample, so a huge mean cannot stall
// a generator.
const geometricCap = 1 << 20

// GeometricThreshold returns the GeometricT threshold for a geometric
// distribution with the given mean: the number of trials until the
// first success with p = 1/mean.
func GeometricThreshold(mean float64) uint64 {
	if mean <= 1 {
		return geometricOne
	}
	p := 1 / mean
	if p != p {
		// A NaN mean: Float64() >= NaN is false, so the first trial
		// succeeds.
		return 1 << 53
	}
	return Threshold(p)
}

// Geometric returns a sample from a geometric distribution with the given
// mean (>= 1), capped at 2^20: GeometricT for a mean given directly.
func (r *Source) Geometric(mean float64) int {
	return r.GeometricT(GeometricThreshold(mean))
}

// GeometricT is Geometric with the mean's threshold precomputed by
// GeometricThreshold: each trial is one draw and one integer compare,
// with the generator state held in locals across the trials.
func (r *Source) GeometricT(t uint64) int {
	if t == geometricOne {
		return 1
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	n := 1
	for {
		// One Uint64 step, inlined.
		result := rotl(s1*5, 7) * 9
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = rotl(s3, 45)
		if result>>11 < t || n >= geometricCap {
			break
		}
		n++
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return n
}

// Perm fills out with a pseudo-random permutation of [0, len(out)).
func (r *Source) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Cycle fills out with a pseudo-random permutation consisting of a single
// cycle (Sattolo's algorithm), so that following out[i] repeatedly visits
// every index. Pointer-chase workloads depend on this full-coverage
// property.
func (r *Source) Cycle(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i) // note: i, not i+1 — Sattolo, not Fisher–Yates
		out[i], out[j] = out[j], out[i]
	}
}
