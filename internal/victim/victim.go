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

var _ cache.Replayer = (*Cache)(nil)

// Replay implements cache.Replayer. An unprobed cache runs the whole
// stream in one loop with the main array's tags, valid and dirty masks
// and every counter in locals: one direct-mapped lookup per access, and
// the buffer only on a main miss. Stats, the main array's Stats and
// BufferHits are written back once, at the end. A probed cache loops
// over Access, since its probe needs the per-access events.
//
// The events are the ones Access's Results give: a buffer hit is a hit
// with Extra 1, and a miss in both carries the buffer's dirty victim.
func (c *Cache) Replay(stream []cache.MemAccess, ev *[]cache.Event) {
	if c.probe != nil {
		cache.ReplayEach(c, stream, ev)
		return
	}
	if ev != nil && uint64(len(stream)) > 1<<32 {
		panic("victim: stream too long for Event indices")
	}
	g := c.main.Geometry()
	offBits, tagShift := g.OffsetBits(), g.OffsetBits()+g.IndexBits()
	idxMask := addr.Addr(g.Sets - 1)
	tags, valid, dirty := c.main.Slab()
	buf, lineMask, entries := c.buf, c.lineMask, c.entries
	// mainHits and refills count the main array's hits; a refill is the
	// write-hit that carries a buffered line's dirty bit into it.
	var writes, mainHits, refills, mainEvictions, mainWritebacks uint64
	var bufHits, evictions, writebacks uint64
	var evs []cache.Event // *ev in a local, stored back at the end
	if ev != nil {
		evs = *ev
	}
	for i, m := range stream {
		a := addr.Addr(m >> 1)
		wr := uint64(m & 1)
		writes += wr
		set := int(a >> offBits & idxMask)
		tag := a >> tagShift
		if valid[set]&1 != 0 && tags[set] == tag {
			dirty[set] |= wr
			mainHits++
			continue
		}
		// Main miss: the array takes the line and displaces its occupant.
		oldValid, oldDirty := valid[set]&1, dirty[set]&1
		old := tags[set]<<tagShift | addr.Addr(set)<<offBits
		tags[set] = tag
		valid[set] |= 1
		dirty[set] = dirty[set]&^1 | wr
		mainEvictions += oldValid
		mainWritebacks += oldValid & oldDirty
		if n := buf.Get(a & lineMask); n != nil {
			// Swap: the buffered line moves in, taking its dirty bit.
			bufHits++
			if n.Val != 0 && wr == 0 {
				dirty[set] |= 1
				refills++
			}
			buf.Remove(n)
			if oldValid != 0 {
				buf.Insert(old, oldDirty) // the removal left room
			}
			if ev != nil {
				evs = append(evs, cache.Event{Index: uint32(i), Extra: 1})
			}
			continue
		}
		e := cache.Event{Index: uint32(i), Miss: true}
		if oldValid != 0 {
			if buf.Len() == entries {
				// The buffer's oldest line leaves the level.
				o := buf.LRU()
				evictions++
				if o.Val != 0 {
					writebacks++
					e.Dirty, e.Victim = true, o.Key
				}
				buf.Remove(o)
			}
			buf.Insert(old, oldDirty)
		}
		if ev != nil {
			evs = append(evs, e)
		}
	}
	if ev != nil {
		*ev = evs
	}
	n := uint64(len(stream))
	ms := c.main.Stats()
	ms.Accesses += n + refills
	ms.Hits += mainHits + refills
	ms.Misses += n - mainHits
	ms.Writes += writes + refills
	ms.Reads += n - writes
	ms.Evictions += mainEvictions
	ms.Writebacks += mainWritebacks
	st := c.stats
	st.Accesses += n
	st.Hits += mainHits + bufHits
	st.Misses += n - mainHits - bufHits
	st.Writes += writes
	st.Reads += n - writes
	st.Evictions += evictions
	st.Writebacks += writebacks
	c.BufferHits += bufHits
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
