// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Simulation results must be bit-for-bit reproducible across machines and
// Go releases (math/rand's algorithm and seeding have changed between
// versions), so the simulator carries its own generator: SplitMix64 for
// seeding and xoshiro256** for the stream, per Blackman & Vigna.
package rng

import (
	"math"
	"math/bits"
)

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

// blockLen is how many outputs a Block holds: a multiple of 64, so its
// pass bitmap has whole words.
const blockLen = 2048

// ReserveLen is how many unread outputs Reserve leaves in a Block.
const ReserveLen = 512

// Block draws a Source's stream from a buffer of its next outputs,
// drawn 64 at a time with the generator state in locals. The same loop
// marks, in a bitmap, which outputs pass Below for one threshold fixed
// at construction, so GeometricPass finds its sample with one
// trailing-zero count per 64 draws. Every method draws what the Source
// method of the same name draws: a Block in place of its Source gives
// the same values, in the same order. The Source runs up to blockLen
// outputs ahead of the Block, so once wrapped it must not be drawn from
// directly.
//
// Uint64, Below, Intn and Float64 draw one buffered output each and do
// not refill, so they stay small enough to inline: Reserve first. After
// Reserve, draws may take up to ReserveLen outputs, a GeometricPass or
// GeometricT sample counting as 64, before the next Reserve; drawing
// past the buffer panics. GeometricPass and GeometricT refill as they
// need, so they never run dry themselves.
type Block struct {
	src *Source
	buf [blockLen]uint64
	// pass has bit j of word w set when buf[64w+j] passes the block's
	// threshold. Its last word stays 0, so a scan at the buffer's end
	// finds nothing and refills.
	pass [blockLen/64 + 1]uint64
	i, n uint   // the next unread output, and the buffered outputs: whole words
	t    uint64 // the GeometricPass threshold
	// drawn counts the outputs drawn into the buffer so far.
	drawn uint64
}

// NewBlock returns a Block over src whose GeometricPass is
// GeometricT(t). It draws nothing until its first Reserve or geometric
// sample.
func NewBlock(src *Source, t uint64) *Block {
	return &Block{src: src, t: t}
}

// passMask returns the threshold the pass bits compare against: for
// x < 2^53, x < t exactly when x < min(t, 2^53), and a difference of
// two values at most 2^53 has its sign in bit 63. geometricOne draws
// nothing, so no output passes it.
func passMask(t uint64) uint64 {
	if t == geometricOne {
		return 0
	}
	return min(t, 1<<53)
}

// Reserve makes at least ReserveLen outputs unread.
func (b *Block) Reserve() {
	if b.n-b.i < ReserveLen {
		b.topUp()
	}
}

// topUp moves the words holding unread outputs to the front of the
// buffer and draws whole words behind them until it is full.
func (b *Block) topUp() {
	first, end := b.i/64, b.n/64
	keep := end - first
	copy(b.buf[:keep*64], b.buf[first*64:b.n])
	copy(b.pass[:keep], b.pass[first:end])
	b.i -= first * 64
	s0, s1, s2, s3 := b.src.s[0], b.src.s[1], b.src.s[2], b.src.s[3]
	t := passMask(b.t)
	for w := keep; w < blockLen/64; w++ {
		var m uint64
		buf := b.buf[w*64 : w*64+64]
		for j := range buf {
			// One Uint64 step, inlined.
			result := rotl(s1*5, 7) * 9
			u := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= u
			s3 = rotl(s3, 45)
			buf[j] = result
			m |= (result>>11 - t) >> 63 << (j & 63)
		}
		b.pass[w] = m
	}
	b.src.s = [4]uint64{s0, s1, s2, s3}
	b.drawn += uint64(blockLen - keep*64)
	b.n = blockLen
}

// Draws returns how many outputs the Block's draws have taken.
func (b *Block) Draws() uint64 { return b.drawn - uint64(b.n-b.i) }

// Uint64 returns the next value in the stream.
func (b *Block) Uint64() uint64 {
	i := b.i
	if i >= b.n {
		panic("rng: Block drawn past its buffer without Reserve")
	}
	b.i = i + 1
	return b.buf[i]
}

// Intn returns a uniform value in [0, n), as Source.Intn does. It
// panics if n <= 0.
func (b *Block) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int((b.Uint64() >> 32 * uint64(n)) >> 32)
}

// Float64 returns a uniform value in [0, 1).
func (b *Block) Float64() float64 {
	return float64(b.Uint64()>>11) / (1 << 53)
}

// Below draws one value and reports whether it falls under the
// threshold t.
func (b *Block) Below(t uint64) bool { return b.Uint64()>>11 < t }

// GeometricPass is GeometricT at the threshold the block was built
// with: the index of the first passing draw, read off the pass bitmap.
func (b *Block) GeometricPass() int {
	if w := b.pass[b.i/64] >> (b.i % 64); w != 0 {
		d := bits.TrailingZeros64(w) + 1
		b.i += uint(d)
		return d
	}
	return b.geometric(b.t, true)
}

// GeometricT returns a geometric sample at threshold t, capped at 2^20,
// as Source.GeometricT does: the draws are compared eight at a time,
// each to a mask bit without a branch.
func (b *Block) GeometricT(t uint64) int { return b.geometric(t, false) }

// geometric draws up to geometricCap values until one passes t, from
// the pass bitmap when bitmap is set (t is then the block's threshold)
// and eight draws at a time otherwise. It leaves at least ReserveLen
// outputs unread.
func (b *Block) geometric(t uint64, bitmap bool) int {
	if t == geometricOne {
		return 1
	}
	mt := passMask(t)
	n := uint(0)
	for {
		if b.i == b.n {
			b.topUp()
		}
		// m marks the passing draws of the next k.
		var m uint64
		var k uint
		if bitmap {
			m, k = b.pass[b.i/64]>>(b.i%64), 64-b.i%64
		} else {
			win := b.buf[b.i:min(b.i+8, b.n)]
			for j, v := range win {
				m |= (v>>11 - mt) >> 63 << j
			}
			k = uint(len(win))
		}
		if m != 0 {
			k = uint(bits.TrailingZeros64(m)) + 1
		}
		if n+k >= geometricCap {
			k = geometricCap - n
			m = 1
		}
		b.i += k
		n += k
		if m != 0 {
			b.Reserve()
			return int(n)
		}
	}
}
