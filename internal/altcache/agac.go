package altcache

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
)

// AGAC is the adaptive group-associative cache (Peir, Lee & Hsu), the
// §7.1 comparator: a direct-mapped cache that tracks underutilized sets
// ("holes") and relocates displacement victims into them, indexed through
// a small out-of-position directory. Hits on relocated lines cost three
// cycles (the paper quotes 5.24% of hits relocated); first-position hits
// stay one cycle.
type AGAC struct {
	geom  cache.Geometry
	lines []agacLine
	// dir maps relocated blocks to the set currently holding them.
	dir []dirEntry
	// refBits marks sets referenced in the current epoch; sets with the
	// bit clear are candidates for holes.
	refBits  []bool
	epochLen uint64
	tick     uint64
	// nextEpoch is the tick at which the reference bits clear next.
	nextEpoch uint64
	clock     uint64
	stats     *cache.Stats

	// RelocatedHits counts hits served out of position (3 cycles).
	RelocatedHits uint64
	// Relocations counts victims moved into holes.
	Relocations uint64
}

type agacLine struct {
	valid bool
	dirty bool
	block addr.Addr
	// home reports whether the stored block's natural index equals this
	// set (false for relocated lines).
	home bool
}

type dirEntry struct {
	valid bool
	block addr.Addr
	set   int
	stamp uint64
}

var _ cache.Cache = (*AGAC)(nil)

// NewAGAC builds an adaptive group-associative cache with dirEntries
// out-of-position directory entries and the given reference-bit epoch
// (accesses between hole-bit clearings).
func NewAGAC(size, lineBytes, dirEntries int, epochLen uint64) (*AGAC, error) {
	geom, err := cache.NewGeometry(size, lineBytes, 1)
	if err != nil {
		return nil, err
	}
	if dirEntries <= 0 {
		return nil, fmt.Errorf("altcache: AGAC needs a positive directory size")
	}
	if epochLen == 0 {
		return nil, fmt.Errorf("altcache: AGAC needs a positive epoch length")
	}
	return &AGAC{
		geom:      geom,
		lines:     make([]agacLine, geom.Frames),
		dir:       make([]dirEntry, dirEntries),
		refBits:   make([]bool, geom.Sets),
		epochLen:  epochLen,
		nextEpoch: epochLen,
		stats:     cache.NewStats(),
	}, nil
}

// Access implements cache.Cache.
func (c *AGAC) Access(a addr.Addr, write bool) cache.Result {
	c.tickEpoch()
	block := c.geom.Block(a)
	s := c.geom.Index(a)
	c.refBits[s] = true

	// Primary (home) position: one cycle.
	if l := &c.lines[s]; l.valid && l.block == block {
		if write {
			l.dirty = true
		}
		c.stats.Record(true, write)
		return cache.Result{Hit: true, Frame: s}
	}

	// Out-of-position directory: relocated line, three cycles total
	// (two extra).
	if di := c.findDir(block); di >= 0 {
		h := c.dir[di].set
		l := &c.lines[h]
		if l.valid && l.block == block {
			c.RelocatedHits++
			c.refBits[h] = true
			c.clock++
			c.dir[di].stamp = c.clock
			if write {
				l.dirty = true
			}
			c.stats.Record(true, write)
			return cache.Result{Hit: true, Frame: h, ExtraLatency: 2}
		}
		// Stale directory entry (line displaced underneath): drop it.
		c.dir[di] = dirEntry{}
	}

	// Miss. Relocate the home victim into a hole when it was recently
	// referenced (worth keeping) and a hole exists; otherwise plain
	// direct-mapped replacement.
	res := cache.Result{Frame: s}
	victim := c.lines[s]
	if victim.valid && c.refBits[s] {
		if h := c.findHole(s); h >= 0 {
			if ev := c.relocate(victim, h); ev.valid {
				res.Evicted = true
				res.EvictedAddr = ev.block << c.geom.OffsetBits()
				res.EvictedDirty = ev.dirty
				c.stats.RecordEviction(ev.dirty)
			}
			victim.valid = false // moved, not evicted
		}
	}
	if victim.valid {
		res.Evicted = true
		res.EvictedAddr = victim.block << c.geom.OffsetBits()
		res.EvictedDirty = victim.dirty
		c.stats.RecordEviction(victim.dirty)
	}
	c.lines[s] = agacLine{valid: true, dirty: write, block: block, home: true}
	c.stats.Record(false, write)
	return res
}

// relocate moves l into hole set h, recording it in the directory, and
// returns the line displaced from the hole (possibly invalid).
func (c *AGAC) relocate(l agacLine, h int) agacLine {
	old := c.lines[h]
	// If the hole held a relocated line, retire its directory entry.
	if old.valid && !old.home {
		if di := c.findDir(old.block); di >= 0 {
			c.dir[di] = dirEntry{}
		}
	}
	l.home = false
	c.lines[h] = l
	c.Relocations++

	// Insert into the directory, displacing the LRU entry; a displaced
	// entry's line becomes unreachable, so invalidate it.
	slot := 0
	for i := range c.dir {
		if !c.dir[i].valid {
			slot = i
			break
		}
		if c.dir[i].stamp < c.dir[slot].stamp {
			slot = i
		}
	}
	if e := c.dir[slot]; e.valid {
		if ll := &c.lines[e.set]; ll.valid && !ll.home && ll.block == e.block {
			ll.valid = false
		}
	}
	c.clock++
	c.dir[slot] = dirEntry{valid: true, block: l.block, set: h, stamp: c.clock}
	return old
}

// findDir returns the directory slot holding block, or -1.
func (c *AGAC) findDir(block addr.Addr) int {
	for i := range c.dir {
		if c.dir[i].valid && c.dir[i].block == block {
			return i
		}
	}
	return -1
}

// findHole returns an unreferenced set other than s, or -1. The scan
// starts from a rotating position so holes spread across the cache; the
// set count is a power of two, so the position wraps with a mask.
func (c *AGAC) findHole(s int) int {
	mask := c.geom.Sets - 1
	start := int(c.tick) & mask
	for i := range c.refBits {
		h := (start + i) & mask
		if h != s && !c.refBits[h] {
			return h
		}
	}
	return -1
}

// tickEpoch clears the reference bits every epochLen accesses, so holes
// reflect recent (not all-time) usage.
func (c *AGAC) tickEpoch() {
	c.tick++
	if c.tick == c.nextEpoch {
		clear(c.refBits)
		c.nextEpoch += c.epochLen
	}
}

// Contains implements cache.Cache.
func (c *AGAC) Contains(a addr.Addr) bool {
	block := c.geom.Block(a)
	if l := &c.lines[c.geom.Index(a)]; l.valid && l.block == block {
		return true
	}
	if di := c.findDir(block); di >= 0 {
		l := &c.lines[c.dir[di].set]
		return l.valid && l.block == block
	}
	return false
}

// Stats implements cache.Cache.
func (c *AGAC) Stats() *cache.Stats { return c.stats }

// Geometry implements cache.Cache.
func (c *AGAC) Geometry() cache.Geometry { return c.geom }

// Name implements cache.Cache.
func (c *AGAC) Name() string {
	return fmt.Sprintf("%dkB-agac%d", c.geom.SizeBytes/1024, len(c.dir))
}

// Reset implements cache.Cache.
func (c *AGAC) Reset() {
	for i := range c.lines {
		c.lines[i] = agacLine{}
	}
	for i := range c.dir {
		c.dir[i] = dirEntry{}
	}
	for i := range c.refBits {
		c.refBits[i] = false
	}
	c.tick, c.nextEpoch, c.clock = 0, c.epochLen, 0
	c.RelocatedHits, c.Relocations = 0, 0
	c.stats.Reset()
}
