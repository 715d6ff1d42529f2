package stackdist

import (
	"fmt"

	"bcache/internal/addr"
)

// MaxWays is the deepest associativity a Profiler tracks. Each set's
// stack is a move-to-front array scanned from the top, so an access
// costs its stack distance, up to maxWays. Every LRU baseline the
// experiments profile is at most 32 ways; a wider cache replays instead.
const MaxWays = 64

// Profiler measures LRU stack distances at one set-index granularity:
// the address stream is partitioned into sets = 2^b classes by the low b
// bits of the block number, and every access records how many distinct
// same-set blocks were touched since its previous access (Mattson's
// stack distance). Under LRU's inclusion property an access hits a
// W-way set-associative cache with that set count if and only if its
// distance is below W, so one pass yields hit/miss counts for every
// associativity up to maxWays at once.
//
// Each set keeps the top maxWays of its LRU stack as a move-to-front
// array: the distance is the block's position in the array, found by
// the same scan that maintains it. The profiler is differentially
// tested against the textbook stack-slice formulation.
type Profiler struct {
	sets    int
	setMask addr.Addr
	maxWays int

	// hist[d] counts accesses at stack distance d < maxWays; over counts
	// the rest — distances >= maxWays and first touches, which miss at
	// every tracked associativity alike (the array cannot tell a first
	// touch from a deep re-access and does not try).
	hist  []uint64
	over  uint64
	total uint64

	// stk[set*maxWays:][:fill[set]] is the set's stack, MRU first.
	stk  []addr.Addr
	fill []int32
}

// NewProfiler builds a profiler for the given power-of-two set count,
// recording exact distances up to maxWays, at most MaxWays (larger
// ones aggregate into a single always-miss bucket).
func NewProfiler(sets, maxWays int) (*Profiler, error) {
	if sets <= 0 || !addr.IsPow2(uint64(sets)) {
		return nil, fmt.Errorf("stackdist: set count %d is not a positive power of two", sets)
	}
	if maxWays <= 0 || maxWays > MaxWays {
		return nil, fmt.Errorf("stackdist: maxWays %d outside 1..%d (MaxWays)", maxWays, MaxWays)
	}
	return &Profiler{
		sets:    sets,
		setMask: addr.Addr(sets - 1),
		maxWays: maxWays,
		hist:    make([]uint64, maxWays),
		stk:     make([]addr.Addr, sets*maxWays),
		fill:    make([]int32, sets),
	}, nil
}

// Sets returns the profiler's set count.
func (p *Profiler) Sets() int { return p.sets }

// Access records one access to block (a line number, not a byte
// address). It scans the set's move-to-front array: the hit position is
// the stack distance. The scan rotates as it goes, each line it passes
// moving one place down, so one loop also restores MRU order, with no
// copy call (stacks are at most MaxWays deep and real distances are
// small). A block not in the top maxWays misses every tracked
// associativity whether it is cold or merely deep, so it lands in over
// either way.
func (p *Profiler) Access(block addr.Addr) {
	p.total++
	set := block & p.setMask
	base := int(set) * p.maxWays
	n := int(p.fill[set])
	stk := p.stk[base : base+n]
	prev := block
	for i, b := range stk {
		stk[i] = prev
		if b == block {
			p.hist[i]++
			return
		}
		prev = b
	}
	p.over++
	if n < p.maxWays {
		p.fill[set]++
		p.stk[base+n] = prev
	}
}

// recent returns the most recently accessed block of block's set, and
// false when the set has seen no access: the top of the set's stack,
// first in its array.
func (p *Profiler) recent(block addr.Addr) (addr.Addr, bool) {
	set := block & p.setMask
	return p.stk[int(set)*p.maxWays], p.fill[set] > 0
}

// Accesses returns the number of recorded accesses.
func (p *Profiler) Accesses() uint64 { return p.total }

// Misses returns the number of accesses that miss a ways-associative LRU
// cache with this profiler's set count: compulsory misses plus every
// access at stack distance >= ways. ways must not exceed the
// profiler's maxWays.
func (p *Profiler) Misses(ways int) (uint64, error) {
	if ways <= 0 || ways > p.maxWays {
		return 0, fmt.Errorf("stackdist: ways %d outside tracked range 1..%d", ways, p.maxWays)
	}
	m := p.over
	for _, n := range p.hist[ways:] {
		m += n
	}
	return m, nil
}
