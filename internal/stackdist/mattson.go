package stackdist

import (
	"fmt"

	"bcache/internal/addr"
)

// shallowWays is the engine-selection threshold: profilers tracking at
// most this many ways use the move-to-front array engine (no hash map,
// no tree — a per-set scan bounded by maxWays, cheap because real
// streams have small stack distances); larger trackers fall back to the
// general map + Fenwick engine whose cost is O(log residency) per
// access regardless of depth.
const shallowWays = 64

// Profiler measures LRU stack distances at one set-index granularity:
// the address stream is partitioned into sets = 2^b classes by the low b
// bits of the block number, and every access records how many distinct
// same-set blocks were touched since its previous access (Mattson's
// stack distance). Under LRU's inclusion property an access hits a
// W-way set-associative cache with that set count if and only if its
// distance is below W, so one pass yields hit/miss counts for every
// associativity at once.
//
// Two engines compute the distances. The shallow engine (maxWays <=
// shallowWays) keeps each set's top maxWays of the LRU stack as a
// move-to-front array: the distance is the block's position in the
// array, found by the same scan that maintains it. The deep engine is
// an order-statistic structure — a Fenwick tree per set over a
// compacted time axis. Each set access claims the next time slot; a
// slot's tree bit is 1 while it is the *latest* access of its block, so
// the distance of a re-access is the count of live slots after the
// block's previous slot. When a set's axis fills, live slots are
// renumbered in order (compaction), keeping the axis at most twice the
// set's resident-block count — amortized O(1) slots per access and
// O(log live) tree work. The engines are differentially tested against
// each other and against the textbook stack-slice formulation.
type Profiler struct {
	sets    int
	setMask addr.Addr
	maxWays int

	// hist[d] counts accesses at stack distance d < maxWays; over counts
	// the rest — distances >= maxWays and, in the shallow engine, first
	// touches (both miss at every tracked associativity; the deep engine
	// keeps compulsory misses in cold, the shallow engine cannot tell a
	// first touch from a deep re-access and does not try).
	hist  []uint64
	over  uint64
	cold  uint64
	total uint64

	// Shallow engine: stk[set*maxWays:][:fill[set]] is the set's stack,
	// MRU first.
	stk  []addr.Addr
	fill []int32

	// Deep engine: last maps a block to its latest time slot in its
	// set's axis (sets partition blocks, so one map serves all sets).
	last  map[addr.Addr]int32
	state []setState
}

// setState is one set's compacted time axis (deep engine).
type setState struct {
	bit    []int32     // Fenwick tree (1-indexed) over slots
	blocks []addr.Addr // slot -> block that claimed it
	t      int32       // next free slot
	live   int32       // slots that are their block's latest access
}

// NewProfiler builds a profiler for the given power-of-two set count,
// recording exact distances up to maxWays (larger ones aggregate into a
// single always-miss bucket).
func NewProfiler(sets, maxWays int) (*Profiler, error) {
	return newProfiler(sets, maxWays, false)
}

// newProfiler is NewProfiler plus an engine override for differential
// tests: forceDeep builds the map + Fenwick engine even below the
// shallow threshold.
func newProfiler(sets, maxWays int, forceDeep bool) (*Profiler, error) {
	if sets <= 0 || !addr.IsPow2(uint64(sets)) {
		return nil, fmt.Errorf("stackdist: set count %d is not a positive power of two", sets)
	}
	if maxWays <= 0 {
		return nil, fmt.Errorf("stackdist: non-positive maxWays %d", maxWays)
	}
	p := &Profiler{
		sets:    sets,
		setMask: addr.Addr(sets - 1),
		maxWays: maxWays,
		hist:    make([]uint64, maxWays),
	}
	if maxWays <= shallowWays && !forceDeep {
		p.stk = make([]addr.Addr, sets*maxWays)
		p.fill = make([]int32, sets)
	} else {
		p.last = make(map[addr.Addr]int32)
		p.state = make([]setState, sets)
	}
	return p, nil
}

// Sets returns the profiler's set count.
func (p *Profiler) Sets() int { return p.sets }

// MaxWays returns the largest associativity with an exact histogram
// bucket.
func (p *Profiler) MaxWays() int { return p.maxWays }

// Access records one access to block (a line number, not a byte
// address).
func (p *Profiler) Access(block addr.Addr) {
	p.total++
	if p.stk != nil {
		p.accessShallow(block)
		return
	}
	p.accessDeep(block)
}

// accessShallow scans the set's move-to-front array: the hit position is
// the stack distance. The scan rotates as it goes, each line it passes
// moving one place down, so one loop also restores MRU order, with no
// copy call (stacks are at most shallowWays deep and real distances are
// small). A block not in the top maxWays misses every tracked
// associativity whether it is cold or merely deep, so it lands in over
// either way.
func (p *Profiler) accessShallow(block addr.Addr) {
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

func (p *Profiler) accessDeep(block addr.Addr) {
	s := &p.state[block&p.setMask]
	// Compact while the axis is self-consistent: every block's last slot
	// is live. Compaction leaves t = live < capacity, so the claim below
	// always finds a free slot.
	if int(s.t) == len(s.blocks) {
		p.compact(s)
	}
	if slot, ok := p.last[block]; ok {
		// Live slots strictly after the previous access = distinct
		// same-set blocks touched since. The block's own bit is still
		// set, so the inclusive prefix sum counts it and cancels.
		d := int(s.live) - s.prefix(int(slot)+1)
		if d < p.maxWays {
			p.hist[d]++
		} else {
			p.over++
		}
		s.add(int(slot), -1)
		s.live--
	} else {
		p.cold++
	}
	slot := s.t
	s.blocks[slot] = block
	s.add(int(slot), 1)
	s.live++
	s.t++
	p.last[block] = slot
}

// compact renumbers s's live slots consecutively and resizes the axis to
// twice the live count, so slot space stays proportional to residency.
func (p *Profiler) compact(s *setState) {
	newCap := int(s.live) * 2
	if newCap < 16 {
		newCap = 16
	}
	blocks := make([]addr.Addr, newCap)
	bit := make([]int32, newCap+1)
	n := int32(0)
	for slot := int32(0); slot < s.t; slot++ {
		b := s.blocks[slot]
		if p.last[b] != slot {
			continue // a newer access of b owns a later slot
		}
		blocks[n] = b
		p.last[b] = n
		n++
	}
	s.blocks, s.bit, s.t = blocks, bit, n
	for i := int32(0); i < n; i++ {
		s.add(int(i), 1)
	}
}

// add applies a Fenwick point update at 0-indexed slot i.
func (s *setState) add(i int, delta int32) {
	for j := i + 1; j <= len(s.blocks); j += j & -j {
		s.bit[j] += delta
	}
}

// prefix returns the number of live slots among the first k.
func (s *setState) prefix(k int) int {
	sum := int32(0)
	for j := k; j > 0; j -= j & -j {
		sum += s.bit[j]
	}
	return int(sum)
}

// recent returns the most recently accessed block of block's set, and
// false when the set has seen no access: the top of the set's stack,
// which the shallow engine keeps first in its array and the deep engine
// in its latest slot (compaction keeps slot order).
func (p *Profiler) recent(block addr.Addr) (addr.Addr, bool) {
	set := block & p.setMask
	if p.stk != nil {
		return p.stk[int(set)*p.maxWays], p.fill[set] > 0
	}
	s := &p.state[set]
	if s.t == 0 {
		return 0, false
	}
	return s.blocks[s.t-1], true
}

// Accesses returns the number of recorded accesses.
func (p *Profiler) Accesses() uint64 { return p.total }

// Misses returns the number of accesses that miss a ways-associative LRU
// cache with this profiler's set count: compulsory misses plus every
// access at stack distance >= ways. ways must not exceed MaxWays.
func (p *Profiler) Misses(ways int) (uint64, error) {
	if ways <= 0 || ways > p.maxWays {
		return 0, fmt.Errorf("stackdist: ways %d outside tracked range 1..%d", ways, p.maxWays)
	}
	m := p.cold + p.over
	for _, n := range p.hist[ways:] {
		m += n
	}
	return m, nil
}
