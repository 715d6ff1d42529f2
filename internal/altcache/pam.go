package altcache

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
)

// PAM is the partial-address-matching cache (Liu), the §7.2 comparator:
// a set-associative cache whose tag store is split into a fast Partial
// Address Directory (a few low tag bits per way) and the full Main
// Directory. The partial comparison predicts the hit way early; when
// several ways share the partial tag or the prediction misverifies, a
// second cycle is needed.
type PAM struct {
	geom     cache.Geometry
	partBits uint
	lines    []pamLine
	lru      cache.Stamps // every set's LRU recency in one slab
	stats    *cache.Stats

	// FastHits are hits whose partial match was unique and verified
	// (single-cycle); SlowHits needed the second cycle.
	FastHits uint64
	SlowHits uint64
}

type pamLine struct {
	valid bool
	dirty bool
	tag   addr.Addr
}

var _ cache.Cache = (*PAM)(nil)

// NewPAM builds a partial-address-matching cache with partBits partial
// tag bits per way (the paper's example uses 5).
func NewPAM(size, lineBytes, ways int, partBits uint) (*PAM, error) {
	geom, err := cache.NewGeometry(size, lineBytes, ways)
	if err != nil {
		return nil, err
	}
	if ways < 2 {
		return nil, fmt.Errorf("altcache: PAM needs ≥ 2 ways (way prediction)")
	}
	if partBits == 0 || partBits >= geom.TagBits() {
		return nil, fmt.Errorf("altcache: bad partial tag width %d", partBits)
	}
	c := &PAM{
		geom:     geom,
		partBits: partBits,
		lines:    make([]pamLine, geom.Frames),
		lru:      cache.NewStamps(geom.Sets, ways),
		stats:    cache.NewStats(),
	}
	return c, nil
}

// partial extracts the low partBits of a tag.
func (c *PAM) partial(tag addr.Addr) addr.Addr {
	return addr.Field(tag, 0, c.partBits)
}

// Access implements cache.Cache.
func (c *PAM) Access(a addr.Addr, write bool) cache.Result {
	set := c.geom.Index(a)
	tag := c.geom.Tag(a)
	part := c.partial(tag)
	base := set * c.geom.Ways

	// PAD comparison: which ways match the partial tag?
	padMatches := 0
	hitWay := -1
	for w := 0; w < c.geom.Ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			continue
		}
		if c.partial(l.tag) == part {
			padMatches++
		}
		if l.tag == tag {
			hitWay = w
		}
	}

	if hitWay >= 0 {
		extra := 0
		if padMatches != 1 {
			// The PAD could not pin a unique way: second cycle.
			extra = 1
			c.SlowHits++
		} else {
			c.FastHits++
		}
		c.lru.Touch(set, hitWay)
		if write {
			c.lines[base+hitWay].dirty = true
		}
		c.stats.Record(true, write)
		return cache.Result{Hit: true, Frame: base + hitWay, ExtraLatency: extra}
	}

	// Miss: LRU refill (identical to a conventional set-assoc cache).
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

// FastHitRate returns the fraction of hits served in a single cycle.
func (c *PAM) FastHitRate() float64 {
	total := c.FastHits + c.SlowHits
	if total == 0 {
		return 0
	}
	return float64(c.FastHits) / float64(total)
}

// Contains implements cache.Cache.
func (c *PAM) Contains(a addr.Addr) bool {
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
func (c *PAM) Stats() *cache.Stats { return c.stats }

// Geometry implements cache.Cache.
func (c *PAM) Geometry() cache.Geometry { return c.geom }

// Name implements cache.Cache.
func (c *PAM) Name() string {
	return fmt.Sprintf("%dkB-pam%dway-p%d", c.geom.SizeBytes/1024, c.geom.Ways, c.partBits)
}

// Reset implements cache.Cache.
func (c *PAM) Reset() {
	for i := range c.lines {
		c.lines[i] = pamLine{}
	}
	c.lru.Reset()
	c.FastHits, c.SlowHits = 0, 0
	c.stats.Reset()
}
