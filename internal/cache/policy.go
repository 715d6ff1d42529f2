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

// lruPolicy tracks recency with a timestamp per way, for caches that
// hold one Policy per set (altcache's PAM); SetAssoc keeps the same
// stamps in one flat slab and scans them the same way. The linear
// victim scan is intentional, but only below the index crossover: sets
// with faIndexMinWays (64) ways or more carry a stackdist.Index whose
// recency list answers the LRU victim in O(1), so this scan only ever
// runs on narrow sets — the paper's 2..32-way sweeps — where it beats
// maintaining a list. TestIndexCrossover asserts the threshold.
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
