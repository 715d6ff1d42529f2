package cache

import (
	"fmt"

	"bcache/internal/rng"
)

// Policy chooses replacement victims within one set of `ways` frames.
// Implementations are per-set: a cache holds one Policy instance per set.
type Policy interface {
	// Touch records a reference to way (hit or refill completion).
	Touch(way int)
	// Victim returns the way to displace. The caller then refills it and
	// calls Touch.
	Victim() int
	// Reset clears history.
	Reset()
}

// PolicyKind names a replacement policy family.
type PolicyKind int

// Replacement policy families. The paper evaluates LRU and random for the
// B-Cache (§3.3); FIFO is included for the HAC model and ablations.
const (
	LRU PolicyKind = iota
	Random
	FIFO
)

func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "lru"
	case Random:
		return "random"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// NewPolicy returns a fresh per-set policy of the given kind.
// Random policies draw from src, which must not be nil for Random.
func NewPolicy(kind PolicyKind, ways int, src *rng.Source) Policy {
	switch kind {
	case LRU:
		return newLRUPolicy(ways)
	case Random:
		if src == nil {
			panic("cache: Random policy requires an rng source")
		}
		return &randomPolicy{ways: ways, src: src}
	case FIFO:
		return &fifoPolicy{ways: ways}
	default:
		panic(fmt.Sprintf("cache: unknown policy kind %d", int(kind)))
	}
}

// Stamps is the LRU recency of a whole cache in one flat slab: one
// stamp per frame, stamp[set*ways+way], from one cache-wide clock.
// Within a set the stamps order the ways exactly as a per-set clock
// would, so the victim is the one a per-set LRU Policy picks, and a
// cache of thousands of sets keeps no policy object per set.
// SetAssoc's sets and core.BCache's rows keep their LRU state here.
type Stamps struct {
	ways  int
	stamp []uint64
	clock uint64
}

// NewStamps returns zeroed recency for sets sets of ways ways each.
func NewStamps(sets, ways int) Stamps {
	return Stamps{ways: ways, stamp: make([]uint64, sets*ways)}
}

// Touch records a use of way in set.
func (s *Stamps) Touch(set, way int) {
	s.clock++
	s.stamp[set*s.ways+way] = s.clock
}

// Victim returns the lowest-numbered way of set with the oldest stamp.
func (s *Stamps) Victim(set int) int {
	stamps := s.stamp[set*s.ways : (set+1)*s.ways]
	victim, best := 0, stamps[0]
	for w, st := range stamps[1:] {
		if st < best {
			victim, best = w+1, st
		}
	}
	return victim
}

// Slab returns the stamps, stamp[set*ways+way], and the clock, for a
// replay kernel that keeps the clock in a register across a chunk. The
// kernel touches a way as Touch does and hands the clock back with
// SetClock.
func (s *Stamps) Slab() (stamp []uint64, clock uint64) { return s.stamp, s.clock }

// SetClock sets the clock a replay kernel advanced.
func (s *Stamps) SetClock(clock uint64) { s.clock = clock }

// Reset clears the recency.
func (s *Stamps) Reset() {
	clear(s.stamp)
	s.clock = 0
}

// lruPolicy tracks recency with a timestamp per way, for a cache that
// holds one Policy per set: core.Reference, the differential oracle. It
// scans its stamps as Stamps does, kept apart as the per-set form the
// oracle runs. The linear victim scan is intentional: the sets it
// serves are narrow, where a scan beats maintaining a recency list.
type lruPolicy struct {
	stamp []uint64
	clock uint64
}

func newLRUPolicy(ways int) *lruPolicy {
	return &lruPolicy{stamp: make([]uint64, ways)}
}

func (p *lruPolicy) Touch(way int) {
	p.clock++
	p.stamp[way] = p.clock
}

func (p *lruPolicy) Victim() int {
	victim, best := 0, p.stamp[0]
	for w, s := range p.stamp[1:] {
		if s < best {
			victim, best = w+1, s
		}
	}
	return victim
}

func (p *lruPolicy) Reset() {
	p.clock = 0
	for i := range p.stamp {
		p.stamp[i] = 0
	}
}

type randomPolicy struct {
	ways int
	src  *rng.Source
}

func (p *randomPolicy) Touch(int)   {}
func (p *randomPolicy) Victim() int { return p.src.Intn(p.ways) }
func (p *randomPolicy) Reset()      {}

type fifoPolicy struct {
	ways int
	next int
}

func (p *fifoPolicy) Touch(int) {}

func (p *fifoPolicy) Victim() int {
	v := p.next
	p.next = (p.next + 1) % p.ways
	return v
}

func (p *fifoPolicy) Reset() { p.next = 0 }
