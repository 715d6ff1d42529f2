package core

import (
	"bcache/internal/addr"
	"bcache/internal/cache"
)

// The PD scrubber is the B-Cache's self-healing path. All of the design's
// extra state lives in the programmable decoder, and a single upset bit
// there can silently break the decoding-uniqueness invariant (§3.2) and
// corrupt every later lookup of the row: a ghost entry can fire a second
// word line, a duplicate can shadow a live line, a dead entry strands its
// line unreachable. ScrubPD walks the decoder, classifies every
// inconsistency, and repairs each one conservatively (unprogram the
// entry, drop its line — the functional model's "refetch"). When the
// cumulative damage passes a configurable limit, or a repair pass somehow
// fails to restore the invariant, the cache degrades to plain
// direct-mapped indexing: the PD is switched off entirely and decoding
// falls back to the conventional index bits, trading the conflict-miss
// win for guaranteed correctness.

// ScrubReport is the outcome of one ScrubPD pass.
type ScrubReport struct {
	// Ghosts are matchable PD lanes whose pdValid bit is clear: CAM
	// content that could fire a word line nothing programmed (SWAR path).
	Ghosts int
	// Dead are programmed entries whose lane reads as invalid: the entry
	// can never match, stranding any line behind it (SWAR path).
	Dead int
	// OutOfRange are programmed entries whose value exceeds PDBits.
	OutOfRange int
	// Duplicates are entries sharing a PD value within a row — direct
	// violations of decoding uniqueness.
	Duplicates int
	// Orphans are valid lines with no programmed PD entry (unreachable).
	Orphans int
	// Repaired counts PD entries unprogrammed or rewritten to restore
	// the invariant.
	Repaired int
	// LinesInvalidated counts resident lines dropped during repair.
	LinesInvalidated int
	// Degraded reports that the cache is (now) running in direct-mapped
	// fallback mode.
	Degraded bool
}

// Faulty reports whether the pass found anything to repair.
func (r ScrubReport) Faulty() bool {
	return r.Ghosts+r.Dead+r.OutOfRange+r.Duplicates+r.Orphans > 0
}

// add accumulates pass totals (used by campaign aggregation).
func (r *ScrubReport) Add(o ScrubReport) {
	r.Ghosts += o.Ghosts
	r.Dead += o.Dead
	r.OutOfRange += o.OutOfRange
	r.Duplicates += o.Duplicates
	r.Orphans += o.Orphans
	r.Repaired += o.Repaired
	r.LinesInvalidated += o.LinesInvalidated
	r.Degraded = r.Degraded || o.Degraded
}

// SetScrubDegradeLimit arms graceful degradation: once the cumulative
// number of scrub repairs over the cache's lifetime reaches n, the next
// ScrubPD pass switches the cache to direct-mapped fallback instead of
// repairing forever. n <= 0 (the default) never degrades on count alone;
// a repair pass that fails to restore the invariant still degrades.
func (c *BCache) SetScrubDegradeLimit(n int) { c.scrubLimit = n }

// ScrubRepairsTotal returns the lifetime count of scrub repairs.
func (c *BCache) ScrubRepairsTotal() int { return c.scrubRepairs }

// Degraded reports whether the cache has fallen back to plain
// direct-mapped indexing (the PD is switched off).
func (c *BCache) Degraded() bool { return c.degraded }

// ScrubPD detects and repairs programmable-decoder corruption, restoring
// decoding uniqueness or degrading to direct-mapped indexing. It is safe
// to call at any point between accesses; a clean decoder is a no-op.
func (c *BCache) ScrubPD() ScrubReport {
	var rep ScrubReport
	if c.degraded {
		rep.Degraded = true
		return rep
	}
	maxPD := addr.Addr(1)<<c.PDBits() - 1
	seen := make(map[addr.Addr]int, c.cfg.BAS)
	for row := 0; row < c.rows; row++ {
		clear(seen)
		for cl := 0; cl < c.cfg.BAS; cl++ {
			w, bit := c.maskAt(cl, row)
			programmed := c.pdValid[w]&bit != 0
			lineValid := c.valid[w]&bit != 0

			if c.swar {
				lane := c.pdWords[row] >> (uint(cl) * 8) & 0xFF
				switch {
				case !programmed && lane != laneInvalid:
					// Ghost: raw CAM content with no owner. The SWAR
					// matcher scans raw lanes, so a ghost with bit 7
					// clear could fire for a real programmable index.
					rep.Ghosts++
					rep.Repaired++
					c.unprogramPD(cl, row)
					if lineValid {
						rep.Orphans++
						rep.LinesInvalidated++
						c.invalidateLine(cl, row)
					}
					continue
				case programmed && lane&laneInvalid != 0:
					// Dead: a programmed entry that can never match.
					rep.Dead++
					rep.Repaired++
					c.unprogramPD(cl, row)
					if lineValid {
						rep.LinesInvalidated++
						c.invalidateLine(cl, row)
					}
					continue
				}
			}
			if !programmed {
				if lineValid {
					// Orphan: a resident line no lookup can reach.
					rep.Orphans++
					rep.LinesInvalidated++
					c.invalidateLine(cl, row)
				}
				continue
			}

			pd := c.pdValue(cl, row)
			if pd > maxPD {
				rep.OutOfRange++
				rep.Repaired++
				c.unprogramPD(cl, row)
				if lineValid {
					rep.LinesInvalidated++
					c.invalidateLine(cl, row)
				}
				continue
			}
			if prev, dup := seen[pd]; dup {
				// Duplicate PD value: decoding is no longer unique.
				// Keep the entry backing a valid line (prefer the
				// earlier cluster when both or neither are valid —
				// the choice is deterministic, which matters more to
				// the campaign than which copy was "right").
				rep.Duplicates++
				rep.Repaired++
				victim := cl
				pw, pb := c.maskAt(prev, row)
				if !lineValid || c.valid[pw]&pb == 0 {
					// current invalid, or previous invalid: evict the
					// invalid one (current first).
					if !lineValid {
						victim = cl
					} else {
						victim = prev
						seen[pd] = cl
					}
				}
				vw, vb := c.maskAt(victim, row)
				if c.valid[vw]&vb != 0 {
					rep.LinesInvalidated++
					c.invalidateLine(victim, row)
				}
				c.unprogramPD(victim, row)
				continue
			}
			seen[pd] = cl
		}
	}

	c.scrubRepairs += rep.Repaired
	if c.scrubLimit > 0 && c.scrubRepairs >= c.scrubLimit {
		// Too much cumulative damage: stop patching a decoder that keeps
		// failing and fall back to conventional indexing.
		c.DegradeToDirectMapped()
	} else if rep.Repaired > 0 || rep.Orphans > 0 {
		// Defense in depth: a repair pass must leave the invariant
		// intact. If it somehow did not, degrading is the only safe
		// answer — zero silent violations, ever.
		if err := c.CheckInvariants(); err != nil {
			c.DegradeToDirectMapped()
		}
	}
	rep.Degraded = c.degraded
	return rep
}

// invalidateLine drops the resident line of (cluster, row) without
// touching the PD entry.
func (c *BCache) invalidateLine(cluster, row int) {
	w, bit := c.maskAt(cluster, row)
	c.valid[w] &^= bit
	c.dirty[w] &^= bit
}

// DegradeToDirectMapped switches the cache to conventional direct-mapped
// indexing: the entire contents are flushed (tags stored before and
// after the switch have different widths, so mixing them would be
// incoherent), the PD is cleared and from then on ignored, and each
// address maps to the frame its conventional index bits select. Miss
// rates return to baseline direct-mapped levels but every lookup is
// correct by construction. Reset restores the healthy mode.
func (c *BCache) DegradeToDirectMapped() {
	if c.degraded {
		return
	}
	for i := range c.pdWords {
		c.pdWords[i] = allLanesInvalid
	}
	for i := range c.pdVals {
		c.pdVals[i] = 0
	}
	for i := range c.pdValid {
		c.pdValid[i] = 0
		c.valid[i] = 0
		c.dirty[i] = 0
	}
	c.degraded = true
}

// accessDegraded is the direct-mapped fallback path: the low log2(BAS)
// bits of the programmable index are exactly the top conventional index
// bits, so (cluster, row) spans the same bits a conventional
// direct-mapped cache of this size decodes, and the stored tag widens to
// cover everything above them.
func (c *BCache) accessDegraded(a addr.Addr, write bool) cache.Result {
	row := c.row(a)
	cl := int(c.pi(a)) & (c.cfg.BAS - 1)
	tag := a >> (c.piShift + c.nb)
	fi := c.frameIndex(cl, row)
	w, bit := c.maskAt(cl, row)

	if c.valid[w]&bit != 0 && c.tags[fi] == tag {
		if write {
			c.dirty[w] |= bit
		}
		c.stats.Record(true, write)
		if c.probe != nil {
			c.probe.ObserveAccess(fi, true, write)
		}
		return cache.Result{Hit: true, Frame: fi}
	}

	res := cache.Result{Frame: fi}
	if c.valid[w]&bit != 0 {
		dirty := c.dirty[w]&bit != 0
		res.Evicted = true
		res.EvictedAddr = c.tags[fi]<<(c.piShift+c.nb) |
			addr.Addr(cl)<<c.piShift | addr.Addr(row)<<c.rowShift
		res.EvictedDirty = dirty
		c.stats.RecordEviction(dirty)
		if c.probe != nil {
			c.probe.ObserveEvict(dirty)
		}
	}
	c.tags[fi] = tag
	c.valid[w] |= bit
	if write {
		c.dirty[w] |= bit
	} else {
		c.dirty[w] &^= bit
	}
	c.stats.Record(false, write)
	if c.probe != nil {
		c.probe.ObserveAccess(fi, false, write)
	}
	return res
}
