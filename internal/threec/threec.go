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
// reference of the same capacity and a first-touch set.
type Classifier struct {
	under cache.Cache
	fa    *cache.SetAssoc
	// blockShift turns an address into its line number.
	blockShift uint
	seen       map[addr.Addr]struct{}
	counts     Counts
}

// New builds a classifier around the cache under test. The reference
// fully-associative cache matches its size and line size.
func New(under cache.Cache) (*Classifier, error) {
	if under == nil {
		return nil, fmt.Errorf("threec: nil cache")
	}
	g := under.Geometry()
	fa, err := cache.NewFullyAssoc(g.SizeBytes, g.LineBytes, cache.LRU, nil)
	if err != nil {
		return nil, fmt.Errorf("threec: building reference: %w", err)
	}
	return &Classifier{
		under:      under,
		fa:         fa,
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

	faHit := c.fa.Access(a, write).Hit
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

// Counts returns the accumulated classification.
func (c *Classifier) Counts() Counts { return c.counts }

// Under returns the cache under test.
func (c *Classifier) Under() cache.Cache { return c.under }
