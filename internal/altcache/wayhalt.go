package altcache

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
)

// WayHalt is the way-halting cache (Zhang, Yang & Vahid), cited by §6.8:
// a set-associative cache with a small fully-parallel "halt tag" array
// holding a few low tag bits per way. The halt tags are compared while
// the index decodes; ways whose halt tag mismatches are never activated,
// saving their tag/data array energy without adding latency. Hit/miss
// behaviour is identical to a conventional LRU set-associative cache —
// the design trades nothing but the tiny halt-tag array for the energy.
//
// §6.8 notes its relevance to the B-Cache: like the B-Cache's borrowed
// tag bits, the halt tags are low tag bits needed before translation
// completes, and the same virtual-index treatment applies.
type WayHalt struct {
	geom     cache.Geometry
	haltBits uint
	lines    []pamLine
	lru      cache.Stamps // every set's LRU recency in one slab
	stats    *cache.Stats

	// WayActivations counts data/tag ways actually powered across all
	// accesses; a conventional cache powers Ways per access.
	WayActivations uint64
}

var _ cache.Cache = (*WayHalt)(nil)

// NewWayHalt builds a way-halting cache with haltBits halt-tag bits per
// way (the original design uses 4).
func NewWayHalt(size, lineBytes, ways int, haltBits uint) (*WayHalt, error) {
	geom, err := cache.NewGeometry(size, lineBytes, ways)
	if err != nil {
		return nil, err
	}
	if ways < 2 {
		return nil, fmt.Errorf("altcache: way halting needs ≥ 2 ways")
	}
	if haltBits == 0 || haltBits >= geom.TagBits() {
		return nil, fmt.Errorf("altcache: bad halt tag width %d", haltBits)
	}
	c := &WayHalt{
		geom:     geom,
		haltBits: haltBits,
		lines:    make([]pamLine, geom.Frames),
		lru:      cache.NewStamps(geom.Sets, ways),
		stats:    cache.NewStats(),
	}
	return c, nil
}

func (c *WayHalt) halt(tag addr.Addr) addr.Addr { return addr.Field(tag, 0, c.haltBits) }

// Access implements cache.Cache.
func (c *WayHalt) Access(a addr.Addr, write bool) cache.Result {
	set := c.geom.Index(a)
	tag := c.geom.Tag(a)
	ht := c.halt(tag)
	base := set * c.geom.Ways

	hitWay := -1
	for w := 0; w < c.geom.Ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			continue // invalid ways halt trivially
		}
		if c.halt(l.tag) != ht {
			continue // halted: way never powered
		}
		c.WayActivations++
		if l.tag == tag {
			hitWay = w
		}
	}

	if hitWay >= 0 {
		c.lru.Touch(set, hitWay)
		if write {
			c.lines[base+hitWay].dirty = true
		}
		c.stats.Record(true, write)
		return cache.Result{Hit: true, Frame: base + hitWay}
	}

	// Miss: conventional LRU refill.
	way := -1
	for w := 0; w < c.geom.Ways; w++ {
		if !c.lines[base+w].valid {
			way = w
			break
		}
	}
	var res cache.Result
	if way < 0 {
		way = c.lru.Victim(set)
		old := &c.lines[base+way]
		res.Evicted = true
		res.EvictedAddr = old.tag<<(c.geom.OffsetBits()+c.geom.IndexBits()) |
			addr.Addr(set)<<c.geom.OffsetBits()
		res.EvictedDirty = old.dirty
		c.stats.RecordEviction(old.dirty)
	}
	c.lines[base+way] = pamLine{valid: true, dirty: write, tag: tag}
	c.lru.Touch(set, way)
	res.Frame = base + way
	c.stats.Record(false, write)
	return res
}

// AvgWaysActive returns the mean number of ways powered per access; a
// conventional cache would report Geometry().Ways.
func (c *WayHalt) AvgWaysActive() float64 {
	if c.stats.Accesses == 0 {
		return 0
	}
	return float64(c.WayActivations) / float64(c.stats.Accesses)
}

// Contains implements cache.Cache.
func (c *WayHalt) Contains(a addr.Addr) bool {
	set := c.geom.Index(a)
	tag := c.geom.Tag(a)
	base := set * c.geom.Ways
	for w := 0; w < c.geom.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Stats implements cache.Cache.
func (c *WayHalt) Stats() *cache.Stats { return c.stats }

// Geometry implements cache.Cache.
func (c *WayHalt) Geometry() cache.Geometry { return c.geom }

// Name implements cache.Cache.
func (c *WayHalt) Name() string {
	return fmt.Sprintf("%dkB-wayhalt%dway-h%d", c.geom.SizeBytes/1024, c.geom.Ways, c.haltBits)
}

// Reset implements cache.Cache.
func (c *WayHalt) Reset() {
	for i := range c.lines {
		c.lines[i] = pamLine{}
	}
	c.lru.Reset()
	c.WayActivations = 0
	c.stats.Reset()
}
