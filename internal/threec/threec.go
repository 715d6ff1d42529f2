// Package threec classifies cache misses with the classic 3C model
// (Hill): compulsory (first touch), capacity (would also miss in a
// fully-associative LRU cache of the same size), and conflict (everything
// else — the misses caused purely by the indexing).
//
// The paper's entire contribution targets the conflict component: the
// B-Cache removes conflict misses while leaving compulsory and capacity
// misses untouched. This package makes that claim directly measurable:
// run the same reference stream through the cache under test and through
// the classifier, and compare the conflict share before and after.
package threec

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/stackdist"
)

// Class is a miss category.
type Class int

// Miss classes (and Hit).
const (
	Hit Class = iota
	Compulsory
	Capacity
	Conflict
)

func (c Class) String() string {
	switch c {
	case Hit:
		return "hit"
	case Compulsory:
		return "compulsory"
	case Capacity:
		return "capacity"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Counts accumulates per-class totals.
type Counts struct {
	Hits       uint64 `json:"hits"`
	Compulsory uint64 `json:"compulsory"`
	Capacity   uint64 `json:"capacity"`
	Conflict   uint64 `json:"conflict"`
}

// Misses returns the total miss count.
func (c Counts) Misses() uint64 { return c.Compulsory + c.Capacity + c.Conflict }

// Accesses returns the total access count.
func (c Counts) Accesses() uint64 { return c.Hits + c.Misses() }

// ConflictShare returns the fraction of misses that are conflicts.
func (c Counts) ConflictShare() float64 {
	if m := c.Misses(); m > 0 {
		return float64(c.Conflict) / float64(m)
	}
	return 0
}

// Classifier runs a cache under test alongside a fully-associative LRU
// reference of the same capacity and a first-touch set. The reference
// is an LRU stack of line numbers (stackdist.Index) holding at most as
// many lines as the cache has frames: a line hits in it iff it is
// resident, so no tags or ways are simulated.
type Classifier struct {
	under cache.Cache
	fa    *stackdist.Index
	lines int // the reference's capacity, in lines
	// blockShift turns an address into its line number.
	blockShift uint
	seen       map[addr.Addr]struct{}
	counts     Counts
}

// New builds a classifier around the cache under test. The reference
// holds as many lines as the cache has frames.
func New(under cache.Cache) (*Classifier, error) {
	if under == nil {
		return nil, fmt.Errorf("threec: nil cache")
	}
	g := under.Geometry()
	return &Classifier{
		under:      under,
		fa:         stackdist.NewIndex(g.Frames),
		lines:      g.Frames,
		blockShift: g.OffsetBits(),
		seen:       make(map[addr.Addr]struct{}),
	}, nil
}

// Access performs one access on both caches and classifies the outcome
// of the cache under test.
func (c *Classifier) Access(a addr.Addr, write bool) Class {
	block := a >> c.blockShift
	_, touched := c.seen[block]
	if !touched {
		c.seen[block] = struct{}{}
	}

	faHit := c.reference(block)
	hit := c.under.Access(a, write).Hit

	switch {
	case hit:
		c.counts.Hits++
		return Hit
	case !touched:
		c.counts.Compulsory++
		return Compulsory
	case !faHit:
		c.counts.Capacity++
		return Capacity
	default:
		c.counts.Conflict++
		return Conflict
	}
}

// reference accesses block in the fully-associative LRU reference and
// reports whether it hit: a hit moves the line to the MRU end, a miss
// evicts the LRU line when the reference is full and inserts block.
func (c *Classifier) reference(block addr.Addr) bool {
	if n := c.fa.Get(block); n != nil {
		c.fa.Touch(n)
		return true
	}
	if c.fa.Len() == c.lines {
		c.fa.Remove(c.fa.LRU())
	}
	c.fa.Insert(block, 0)
	return false
}

// Counts returns the accumulated classification.
func (c *Classifier) Counts() Counts { return c.counts }

// Under returns the cache under test.
func (c *Classifier) Under() cache.Cache { return c.under }
