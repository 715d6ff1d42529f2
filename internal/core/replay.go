package core

import (
	"math/bits"

	"bcache/internal/addr"
	"bcache/internal/cache"
)

// Replay implements cache.Replayer: it runs stream through the cache in
// order and leaves exactly the state and counters that one Access per
// element leaves, appending to a non-nil ev the Event of every miss. An
// unprobed, healthy LRU cache on the SWAR path runs the whole chunk in
// one loop (replaySWAR); any other cache loops over Access, since a
// probe needs its per-access events and the scalar, Random and degraded
// paths are not where the sweeps spend their time.
func (c *BCache) Replay(stream []cache.MemAccess, ev *[]cache.Event) {
	if c.probe != nil || c.degraded || !c.swar || c.policies != nil {
		cache.ReplayEach(c, stream, ev)
		return
	}
	c.replaySWAR(stream, ev)
}

// replaySWAR is Access's SWAR/LRU path over a whole chunk, with the
// geometry, the arrays, the LRU clock and the counters in locals. With
// BAS ≤ 8 a row's masks are one word, so the row indexes them directly.
// The write flag enters the dirty mask and the write count as a 0 or 1,
// not a branch. Stats and PDStats are written back once, at the end.
// Every B-Cache hit is a one-cycle hit, so its events are its misses.
func (c *BCache) replaySWAR(stream []cache.MemAccess, ev *[]cache.Event) {
	rowShift, rowMask := c.rowShift, c.rowMask
	piShift, piMask, tagShift := c.piShift, c.piMask, c.tagShift
	rows, bas, tailMask := c.rows, c.cfg.BAS, c.tailMask
	pdWords, pdValid, valid, dirty, tags := c.pdWords, c.pdValid, c.valid, c.dirty, c.tags
	stamp, clock := c.lru.Slab()
	if ev != nil && uint64(len(stream)) > 1<<32 {
		panic("core: stream too long for Event indices")
	}
	var writes, hits, missPDHit, missPDMiss, evictions, writebacks uint64
	var evs []cache.Event // *ev in a local, stored back at the end
	if ev != nil {
		evs = *ev
	}
	for i, m := range stream {
		a := addr.Addr(m >> 1)
		wr := uint64(m & 1)
		writes += wr
		row := int(a >> rowShift & rowMask)
		pi := uint64(a >> piShift & piMask)
		tag := a >> tagShift
		var cl int
		if match := matchLanes(pdWords[row], pi); match != 0 {
			cl = bits.TrailingZeros64(match) >> 3
			if valid[row]>>uint(cl)&1 != 0 && tags[cl*rows+row] == tag {
				clock++
				stamp[row*bas+cl] = clock
				dirty[row] |= wr << uint(cl)
				hits++
				continue
			}
			missPDHit++
		} else {
			missPDMiss++
			if free := ^pdValid[row] & tailMask; free != 0 {
				cl = bits.TrailingZeros64(free)
			} else {
				// Stamps.Victim: the lowest way with the oldest stamp.
				st := stamp[row*bas : row*bas+bas]
				best := st[0]
				for w, s := range st[1:] {
					if s < best {
						cl, best = w+1, s
					}
				}
			}
		}
		// refill: evict the occupant, reprogram the lane, install.
		bit := uint64(1) << uint(cl)
		if valid[row]&bit != 0 {
			evictions++
			if dirty[row]&bit != 0 {
				writebacks++
			}
		}
		if ev != nil {
			// Before the refill overwrites the victim's tag and lane.
			e := cache.Event{Index: uint32(i), Miss: true}
			if valid[row]&dirty[row]&bit != 0 {
				e.Dirty, e.Victim = true, c.lineAddr(cl, row)
			}
			evs = append(evs, e)
		}
		sh := uint(cl) * laneBits
		pdWords[row] = pdWords[row]&^(0xFF<<sh) | pi<<sh
		pdValid[row] |= bit
		tags[cl*rows+row] = tag
		valid[row] |= bit
		dirty[row] = dirty[row]&^bit | wr<<uint(cl)
		clock++
		stamp[row*bas+cl] = clock
	}
	c.lru.SetClock(clock)
	if ev != nil {
		*ev = evs
	}
	n := uint64(len(stream))
	misses := n - hits
	st := c.stats
	st.Accesses += n
	st.Hits += hits
	st.Misses += misses
	st.Writes += writes
	st.Reads += n - writes
	st.Evictions += evictions
	st.Writebacks += writebacks
	c.pdStats.HitPD += hits
	c.pdStats.MissPDHit += missPDHit
	c.pdStats.MissPDMiss += missPDMiss
	c.pdStats.Programmed += missPDMiss
}
