// Package victim implements a direct-mapped cache backed by a small
// fully-associative victim buffer (Jouppi), the main prior technique the
// paper compares the B-Cache against (§6.6: a 16-entry buffer).
//
// On a main-cache miss the buffer is probed; on a buffer hit the line is
// swapped back into the main cache (an extra cycle in hardware — the
// timing model charges it). Lines displaced from the main cache fall into
// the buffer, which evicts the oldest-inserted line.
package victim

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/stackdist"
)

// Cache is a direct-mapped cache plus victim buffer. It implements
// cache.Cache; Stats() reports the combined hit/miss behaviour (a buffer
// hit counts as a hit).
//
// The buffer is a stackdist.Index: a hash map from line address to a
// node on an intrusive insertion-order list, so the probe and the
// eviction choice are O(1) instead of O(entries). Entries are never
// recency-touched — a buffer hit removes the line (it moves back into
// the main cache) — so the list's LRU end is the oldest insertion,
// exactly the victim the previous stamp-scan implementation picked.
type Cache struct {
	main    *cache.SetAssoc
	buf     *stackdist.Index
	entries int
	stats   *cache.Stats
	probe   cache.Probe // nil unless observability is attached
	// BufferHits counts hits served from the victim buffer; these take
	// an extra cycle when the buffer is probed after the main cache.
	BufferHits uint64

	// lineMask turns an address into its buffer key, the line address.
	lineMask addr.Addr
}

var _ cache.Cache = (*Cache)(nil)

// New builds a direct-mapped size/lineBytes cache with an entries-line
// fully-associative victim buffer. The buffer's index is sized up
// front, so a buffer larger than the cache it backs is refused rather
// than allocated.
func New(size, lineBytes, entries int) (*Cache, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("victim: non-positive buffer size %d", entries)
	}
	main, err := cache.NewDirectMapped(size, lineBytes)
	if err != nil {
		return nil, err
	}
	g := main.Geometry()
	if entries > g.Sets {
		return nil, fmt.Errorf("victim: buffer of %d lines exceeds the %d-line cache", entries, g.Sets)
	}
	return &Cache{
		main:     main,
		buf:      stackdist.NewIndex(entries),
		entries:  entries,
		stats:    cache.NewStats(),
		lineMask: ^addr.Addr(uint64(g.LineBytes) - 1),
	}, nil
}

// Entries returns the victim buffer capacity in lines.
func (c *Cache) Entries() int { return c.entries }

// Access implements cache.Cache. The direct-mapped array is accessed
// once: on a miss it has already taken the line and displaced its old
// one, so a buffer hit only carries the buffered copy's dirty bit over
// and drops the entry, and in both miss cases the displaced line enters
// the buffer.
func (c *Cache) Access(a addr.Addr, write bool) cache.Result {
	r := c.main.Access(a, write)
	if r.Hit {
		c.stats.Record(true, write)
		if c.probe != nil {
			c.probe.ObserveAccess(r.Frame, true, write)
		}
		return r
	}

	// Main miss: probe the buffer.
	res := cache.Result{Frame: r.Frame}
	if n := c.buf.Get(a & c.lineMask); n != nil {
		// Swap: the buffered line has moved into the main cache and the
		// displaced main line takes its place in the buffer.
		c.BufferHits++
		if n.Val != 0 && !write {
			c.main.Access(a, true)
		}
		c.buf.Remove(n)
		// The buffer is probed after the main cache misses: +1 cycle
		// (paper §1: "an extra cycle is required to access the victim
		// buffer").
		res.Hit, res.ExtraLatency = true, 1
	}
	if r.Evicted {
		if evLine, evDirty, evicted := c.insert(r.EvictedAddr, r.EvictedDirty); evicted {
			// The buffer's oldest line leaves the hierarchy level
			// entirely. A buffer hit has just freed an entry, so only a
			// miss in both gets here.
			res.Evicted = true
			res.EvictedAddr = evLine
			res.EvictedDirty = evDirty
			c.stats.RecordEviction(evDirty)
			if c.probe != nil {
				c.probe.ObserveEvict(evDirty)
			}
		}
	}
	c.stats.Record(res.Hit, write)
	if c.probe != nil {
		c.probe.ObserveAccess(r.Frame, res.Hit, write)
	}
	return res
}

// SetProbe implements cache.Probed: the probe observes the combined
// main-cache-plus-buffer behaviour (a buffer hit is a hit), matching
// Stats(). The inner direct-mapped cache is not probed separately.
func (c *Cache) SetProbe(p cache.Probe) { c.probe = p }

// Probe implements cache.Probed.
func (c *Cache) Probe() cache.Probe { return c.probe }

// StateBits delegates fault injection to the main direct-mapped array,
// where nearly all of the state (and therefore the soft-error cross
// section) lives; the small victim buffer is not modelled as a target.
func (c *Cache) StateBits(d cache.FaultDomain) uint64 { return c.main.StateBits(d) }

// FlipStateBit flips a main-array state bit (see cache.SetAssoc).
func (c *Cache) FlipStateBit(d cache.FaultDomain, bit uint64) { c.main.FlipStateBit(d, bit) }

// InvalidateSite drops the main-array line owning the bit.
func (c *Cache) InvalidateSite(d cache.FaultDomain, bit uint64) { c.main.InvalidateSite(d, bit) }

// insert places a displaced line into the buffer, evicting the oldest
// entry when full; evicted reports whether a valid line was displaced.
func (c *Cache) insert(line addr.Addr, dirty bool) (evLine addr.Addr, evDirty, evicted bool) {
	if c.buf.Len() == c.entries {
		old := c.buf.LRU()
		evLine, evDirty, evicted = old.Key, old.Val != 0, true
		c.buf.Remove(old)
	}
	var val uint64
	if dirty {
		val = 1
	}
	c.buf.Insert(line, val)
	return evLine, evDirty, evicted
}

// Contains implements cache.Cache (main cache or buffer).
func (c *Cache) Contains(a addr.Addr) bool {
	if c.main.Contains(a) {
		return true
	}
	return c.buf.Get(a&c.lineMask) != nil
}

// Stats implements cache.Cache.
func (c *Cache) Stats() *cache.Stats { return c.stats }

// Geometry implements cache.Cache (the main cache's shape).
func (c *Cache) Geometry() cache.Geometry { return c.main.Geometry() }

// Name implements cache.Cache.
func (c *Cache) Name() string {
	return fmt.Sprintf("%dkB-dm+victim%d", c.main.Geometry().SizeBytes/1024, c.entries)
}

// Reset implements cache.Cache.
func (c *Cache) Reset() {
	c.main.Reset()
	c.buf.Reset()
	c.BufferHits = 0
	c.stats.Reset()
}
