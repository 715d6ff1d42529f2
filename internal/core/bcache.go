// Package core implements the paper's contribution: the Balanced Cache
// (B-Cache), a direct-mapped cache whose local decoders are partially
// programmable.
//
// A conventional direct-mapped cache decodes a fixed index: each address
// maps to exactly one frame, and non-uniform access streams overload some
// sets while others idle. The B-Cache lengthens the index by log2(MF)
// bits taken from the low end of the tag and makes the top
// log2(BAS)+log2(MF) index bits *programmable*: each frame carries a
// small CAM entry (its programmable-decoder, or PD, entry) holding the
// index value that currently activates it.
//
// Decoding stays direct-mapped — the non-programmable index (NPI) selects
// a row of BAS candidate frames and at most one of their PD entries can
// match (a checked invariant), so exactly one word line fires and hits
// take a single cycle. But on a miss whose PD lookup also misses, the
// victim may be chosen from all BAS frames of the row by a replacement
// policy, and the victim's PD entry is reprogrammed on the fly. Heavily
// used sets spill into underutilized ones and conflict misses approach
// those of a BAS-way set-associative cache (paper §3).
//
// Terminology (paper §3.1):
//
//	MF  = 2^(PI+NPI)/2^OI — the memory-address mapping factor: only 1/MF
//	      of the address space has a mapping at any instant.
//	BAS = 2^OI/2^NPI — the B-Cache associativity: the number of candidate
//	      frames a victim can be chosen from.
//
// MF = 1 and BAS = 1 degenerate to a conventional direct-mapped cache.
//
// The hardware PD is a bit-parallel CAM: all BAS entries of a row compare
// against the programmable index simultaneously (§3.2). BCache mirrors
// that in software — PD entries are packed eight-per-uint64 and matched
// with a branch-free SWAR compare — while Reference keeps the scalar
// array-of-structs implementation as the differential-testing oracle.
package core

import (
	"fmt"
	"math/bits"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
)

// Config parameterizes a B-Cache.
type Config struct {
	// SizeBytes and LineBytes fix the data array (e.g. 16384 and 32 for
	// the paper's baseline).
	SizeBytes int
	LineBytes int
	// MF is the memory-address mapping factor (power of two ≥ 1).
	// The paper selects 8 (§4.3.2).
	MF int
	// BAS is the B-Cache associativity (power of two ≥ 1).
	// The paper selects 8 (§4.3.1).
	BAS int
	// Policy selects the replacement policy used on PD misses
	// (LRU or Random; §3.3).
	Policy cache.PolicyKind
	// Seed seeds the Random policy; ignored for LRU.
	Seed uint64
}

// PDStats counts programmable-decoder outcomes.
type PDStats struct {
	// HitPD counts cache hits (which are PD hits by definition).
	HitPD uint64
	// MissPDHit counts cache misses whose PD lookup hit: the victim is
	// forced to the matching frame and the replacement policy cannot be
	// exploited (§2.3, second situation).
	MissPDHit uint64
	// MissPDMiss counts cache misses whose PD lookup also missed: the
	// miss is predetermined (no tag/data read needed) and the victim is
	// chosen by the replacement policy (§2.3, third situation).
	MissPDMiss uint64
	// Programmed counts PD entry writes (refills that reprogram a
	// decoder entry).
	Programmed uint64
}

// HitRateDuringMiss returns the fraction of cache misses whose PD lookup
// hit — the quantity Table 6 and Figure 3 report. Lower is better: a low
// PD hit rate during misses means the replacement policy is fully
// exploited (§2.3).
func (s PDStats) HitRateDuringMiss() float64 {
	m := s.MissPDHit + s.MissPDMiss
	if m == 0 {
		return 0
	}
	return float64(s.MissPDHit) / float64(m)
}

// SWAR constants for the packed PD word: 8 lanes of 8 bits.
const (
	swarLanes = 8
	// laneBits is the width of one packed PD lane.
	laneBits = 8
	// laneInvalid marks an unprogrammed (or absent, when BAS < 8) lane.
	// Programmed PD values on the SWAR path fit in 7 bits, so a lane with
	// bit 7 set can never equal any broadcast programmable index and the
	// zero-byte search skips it for free.
	laneInvalid = 0x80
	// laneLSBs has the least-significant bit of every lane set;
	// multiplying by it broadcasts a 7-bit value to all lanes.
	laneLSBs = 0x0101010101010101
	// laneMSBs has the most-significant bit of every lane set.
	laneMSBs        = 0x8080808080808080
	allLanesInvalid = laneInvalid * laneLSBs
)

// matchLanes returns a word whose lane MSBs mark the lanes of w equal to
// the 7-bit value v (the classic XOR + has-zero-byte SWAR trick). Lanes
// above a matching lane can carry false positives from borrow
// propagation, so callers must take the lowest set lane; decoding
// uniqueness guarantees at most one true match.
func matchLanes(w uint64, v uint64) uint64 {
	x := w ^ (v * laneLSBs)
	return (x - laneLSBs) & ^x & laneMSBs
}

// BCache is the balanced cache. It implements cache.Cache.
//
// Storage is structure-of-arrays: the per-frame metadata lives in flat
// parallel arrays indexed by frameIndex, and the PD entries of a row are
// packed into a single uint64 (eight 8-bit lanes, one per cluster) so
// lookupPD compares all BAS candidates in a handful of ALU ops — the
// software analogue of the paper's bit-parallel PD CAM. Configurations
// whose PD does not fit the lanes (PDBits > 7 or BAS > 8) fall back to a
// scalar scan over the same arrays.
//
// A BCache instance is goroutine-confined: no internal locking.
type BCache struct {
	cfg  Config
	geom cache.Geometry // ways = 1: the B-Cache is direct-mapped

	nb   uint // log2(BAS)
	nm   uint // log2(MF)
	rows int  // 2^NPI where NPI = OI - nb

	// Precomputed address-field shifts and masks so the access path never
	// re-derives geometry logarithms.
	rowShift uint      // offset bits: low bit of the NPI field
	rowMask  addr.Addr // 2^NPI - 1
	piShift  uint      // low bit of the programmable index
	piMask   addr.Addr // 2^(nb+nm) - 1
	tagShift uint      // low bit of the stored tag remainder

	// swar selects the packed-word PD lookup (PDBits ≤ 7 and BAS ≤ 8 —
	// true for every configuration the paper evaluates, including the
	// MF=8/BAS=8 design point with its 6-bit PD).
	swar bool
	// pdWords[row] packs the row's PD entries, lane cl = cluster cl
	// (SWAR path only; unprogrammed lanes hold laneInvalid).
	pdWords []uint64
	// pdVals[frameIndex] holds PD values on the scalar fallback path.
	pdVals []uint32

	// Per-row bitmasks, one bit per cluster, maskWords words per row:
	// pdValid = programmed decoder entries, valid = resident lines,
	// dirty = lines needing writeback.
	pdValid   []uint64
	valid     []uint64
	dirty     []uint64
	maskWords int
	// tailMask masks the clusters present in the last mask word of a row.
	tailMask uint64

	// tags[frameIndex] holds the tag bits above the PI field.
	tags []addr.Addr

	// lru is the LRU recency of every row's clusters in one slab
	// (cache.Stamps), so the rows keep no policy objects. Random keeps
	// one cache.Policy per row (policies, nil under LRU), all drawing
	// from the one seeded stream.
	lru      cache.Stamps
	policies []cache.Policy

	stats   *cache.Stats
	pdStats PDStats
	probe   cache.Probe // nil unless observability is attached

	// degraded marks the direct-mapped fallback mode the scrubber enters
	// when PD repair is impossible (see scrub.go); the PD is then ignored
	// and decoding uses the conventional index bits.
	degraded bool
	// scrubLimit and scrubRepairs arm graceful degradation: once
	// cumulative repairs reach the (positive) limit, ScrubPD degrades.
	scrubLimit   int
	scrubRepairs int
}

var _ cache.Cache = (*BCache)(nil)

// validate checks cfg and derives the geometry shared by New and
// NewReference.
func validate(cfg Config) (geom cache.Geometry, nb, nm uint, err error) {
	geom, err = cache.NewGeometry(cfg.SizeBytes, cfg.LineBytes, 1)
	if err != nil {
		return cache.Geometry{}, 0, 0, err
	}
	if cfg.MF < 1 || !addr.IsPow2(uint64(cfg.MF)) {
		return cache.Geometry{}, 0, 0, fmt.Errorf("core: MF %d is not a positive power of two", cfg.MF)
	}
	if cfg.BAS < 1 || !addr.IsPow2(uint64(cfg.BAS)) {
		return cache.Geometry{}, 0, 0, fmt.Errorf("core: BAS %d is not a positive power of two", cfg.BAS)
	}
	nb = addr.Log2(uint64(cfg.BAS))
	nm = addr.Log2(uint64(cfg.MF))
	if nb > geom.IndexBits() {
		return cache.Geometry{}, 0, 0, fmt.Errorf("core: BAS %d exceeds %d sets", cfg.BAS, geom.Sets)
	}
	if nm > geom.TagBits() {
		return cache.Geometry{}, 0, 0, fmt.Errorf("core: MF %d needs %d tag bits, have %d", cfg.MF, nm, geom.TagBits())
	}
	return geom, nb, nm, nil
}

// New validates cfg and builds the B-Cache.
func New(cfg Config) (*BCache, error) {
	geom, nb, nm, err := validate(cfg)
	if err != nil {
		return nil, err
	}
	var src *rng.Source
	if cfg.Policy == cache.Random {
		src = rng.New(cfg.Seed)
	}
	c := &BCache{
		cfg:       cfg,
		geom:      geom,
		nb:        nb,
		nm:        nm,
		rows:      1 << (geom.IndexBits() - nb),
		swar:      nb+nm <= 7 && cfg.BAS <= swarLanes,
		maskWords: (cfg.BAS + 63) / 64,
		stats:     cache.NewStats(),
	}
	npi := geom.IndexBits() - nb
	c.rowShift = geom.OffsetBits()
	c.rowMask = 1<<npi - 1
	c.piShift = c.rowShift + npi
	c.piMask = 1<<(nb+nm) - 1
	c.tagShift = c.rowShift + geom.IndexBits() + nm
	if tail := cfg.BAS & 63; tail != 0 {
		c.tailMask = 1<<uint(tail) - 1
	} else {
		c.tailMask = ^uint64(0)
	}
	if c.swar {
		c.pdWords = make([]uint64, c.rows)
		for i := range c.pdWords {
			c.pdWords[i] = allLanesInvalid
		}
	} else {
		c.pdVals = make([]uint32, geom.Frames)
	}
	c.pdValid = make([]uint64, c.rows*c.maskWords)
	c.valid = make([]uint64, c.rows*c.maskWords)
	c.dirty = make([]uint64, c.rows*c.maskWords)
	c.tags = make([]addr.Addr, geom.Frames)
	if cfg.Policy == cache.LRU {
		c.lru = cache.NewStamps(c.rows, cfg.BAS)
	} else {
		c.policies = make([]cache.Policy, c.rows)
		for r := range c.policies {
			c.policies[r] = cache.NewPolicy(cfg.Policy, cfg.BAS, src)
		}
	}
	return c, nil
}

// PDBits returns the programmable-index length in bits
// (log2(BAS) + log2(MF); 6 for the paper's MF=8, BAS=8 design).
func (c *BCache) PDBits() uint { return c.nb + c.nm }

// NPDBits returns the non-programmable-index length in bits.
func (c *BCache) NPDBits() uint { return c.geom.IndexBits() - c.nb }

// Config returns the configuration the cache was built with.
func (c *BCache) Config() Config { return c.cfg }

// row extracts the non-programmable index of a.
func (c *BCache) row(a addr.Addr) int {
	return int(a >> c.rowShift & c.rowMask)
}

// pi extracts the programmable index of a: the top log2(BAS) original
// index bits plus the adjacent low log2(MF) tag bits.
func (c *BCache) pi(a addr.Addr) addr.Addr {
	return a >> c.piShift & c.piMask
}

// tagRem extracts the tag bits not covered by the PD (the bits the tag
// array stores — three fewer than the baseline in the paper's design).
func (c *BCache) tagRem(a addr.Addr) addr.Addr {
	return a >> c.tagShift
}

// frameIndex maps (cluster, row) to the physical frame index.
func (c *BCache) frameIndex(cluster, row int) int { return cluster*c.rows + row }

// maskAt returns the bitmask word index and bit for (cluster, row).
func (c *BCache) maskAt(cluster, row int) (int, uint64) {
	return row*c.maskWords + cluster>>6, 1 << (uint(cluster) & 63)
}

// rowWordMask returns the bits usable in mask word k of a row (the last
// word of a row with BAS not a multiple of 64 is partially populated).
func (c *BCache) rowWordMask(k int) uint64 {
	if k == c.maskWords-1 {
		return c.tailMask
	}
	return ^uint64(0)
}

// pdValue returns the PD entry of (cluster, row); only meaningful when
// the entry is programmed.
func (c *BCache) pdValue(cluster, row int) addr.Addr {
	if c.swar {
		return addr.Addr(c.pdWords[row] >> (uint(cluster) * 8) & 0x7F)
	}
	return addr.Addr(c.pdVals[c.frameIndex(cluster, row)])
}

// setPD programs the PD entry of (cluster, row) with pi.
func (c *BCache) setPD(cluster, row int, pi addr.Addr) {
	if c.swar {
		sh := uint(cluster) * 8
		c.pdWords[row] = c.pdWords[row]&^(0xFF<<sh) | uint64(pi)<<sh
	} else {
		c.pdVals[c.frameIndex(cluster, row)] = uint32(pi)
	}
	w, bit := c.maskAt(cluster, row)
	c.pdValid[w] |= bit
}

// lookupPD returns the cluster whose PD entry matches pi in row, or -1.
// At most one can match (decoding uniqueness).
func (c *BCache) lookupPD(row int, pi addr.Addr) int {
	if c.swar {
		// Branch-free compare of all eight lanes at once. False-positive
		// lanes can only sit above the true zero lane, so the lowest set
		// lane is the match.
		m := matchLanes(c.pdWords[row], uint64(pi))
		if m == 0 {
			return -1
		}
		return bits.TrailingZeros64(m) >> 3
	}
	// Scalar fallback: visit only the programmed clusters, walking the
	// valid bitmask word by word.
	base := row * c.maskWords
	for k := 0; k < c.maskWords; k++ {
		for w := c.pdValid[base+k]; w != 0; w &= w - 1 {
			cl := k<<6 + bits.TrailingZeros64(w)
			if addr.Addr(c.pdVals[c.frameIndex(cl, row)]) == pi {
				return cl
			}
		}
	}
	return -1
}

// firstUnprogrammed returns the lowest cluster of row without a PD entry,
// or -1 when all BAS entries are programmed.
func (c *BCache) firstUnprogrammed(row int) int {
	base := row * c.maskWords
	for k := 0; k < c.maskWords; k++ {
		if free := ^c.pdValid[base+k] & c.rowWordMask(k); free != 0 {
			return k<<6 + bits.TrailingZeros64(free)
		}
	}
	return -1
}

// touch records a use of cluster in row with the replacement policy.
func (c *BCache) touch(row, cluster int) {
	if c.policies == nil {
		c.lru.Touch(row, cluster)
		return
	}
	c.policies[row].Touch(cluster)
}

// victim returns the cluster the replacement policy evicts from a fully
// programmed row.
func (c *BCache) victim(row int) int {
	if c.policies == nil {
		return c.lru.Victim(row)
	}
	return c.policies[row].Victim()
}

// Access implements cache.Cache.
func (c *BCache) Access(a addr.Addr, write bool) cache.Result {
	if c.degraded {
		return c.accessDegraded(a, write)
	}
	row := c.row(a)
	pi := c.pi(a)
	tag := c.tagRem(a)

	if cl := c.lookupPD(row, pi); cl >= 0 {
		fi := c.frameIndex(cl, row)
		w, bit := c.maskAt(cl, row)
		if c.valid[w]&bit != 0 && c.tags[fi] == tag {
			// Cache hit: single activated word line, one cycle.
			c.touch(row, cl)
			if write {
				c.dirty[w] |= bit
			}
			c.pdStats.HitPD++
			c.stats.Record(true, write)
			if c.probe != nil {
				// A cache hit is a PD hit by definition (§2.3), so the
				// hot path emits a single event; probes derive total PD
				// hits as Hits + PDHits-during-miss.
				c.probe.ObserveAccess(fi, true, write)
			}
			return cache.Result{Hit: true, Frame: fi}
		}
		// PD hit, cache miss: unique decoding forces this frame as the
		// victim — replacing any other frame would require evicting this
		// one too (paper §2.3). The replacement policy cannot help here.
		c.pdStats.MissPDHit++
		res := c.refill(cl, row, pi, tag, write)
		c.stats.Record(false, write)
		if c.probe != nil {
			c.probe.ObservePD(true)
			c.probe.ObserveAccess(fi, false, write)
		}
		return res
	}

	// PD miss: the miss is predetermined (no data or tag array read).
	// The victim comes from any of the row's BAS clusters; its PD entry
	// is reprogrammed with a's programmable index.
	c.pdStats.MissPDMiss++
	cl := c.firstUnprogrammed(row) // cold start: program invalid entries first
	if cl < 0 {
		cl = c.victim(row)
	}
	fi := c.frameIndex(cl, row)
	c.pdStats.Programmed++
	res := c.refill(cl, row, pi, tag, write)
	c.stats.Record(false, write)
	if c.probe != nil {
		c.probe.ObservePD(false)
		c.probe.ObserveReprogram()
		c.probe.ObserveAccess(fi, false, write)
	}
	return res
}

// refill installs (pi, tag) into (cluster, row), reporting any eviction,
// and touches the replacement state.
func (c *BCache) refill(cluster, row int, pi, tag addr.Addr, write bool) cache.Result {
	fi := c.frameIndex(cluster, row)
	w, bit := c.maskAt(cluster, row)
	res := cache.Result{Frame: fi}
	if c.valid[w]&bit != 0 {
		dirty := c.dirty[w]&bit != 0
		res.Evicted = true
		res.EvictedAddr = c.lineAddr(cluster, row)
		res.EvictedDirty = dirty
		c.stats.RecordEviction(dirty)
		if c.probe != nil {
			c.probe.ObserveEvict(dirty)
		}
	}
	c.setPD(cluster, row, pi)
	c.tags[fi] = tag
	c.valid[w] |= bit
	if write {
		c.dirty[w] |= bit
	} else {
		c.dirty[w] &^= bit
	}
	c.touch(row, cluster)
	return res
}

// lineAddr reconstructs the line-aligned address cached in (cluster, row).
func (c *BCache) lineAddr(cluster, row int) addr.Addr {
	fi := c.frameIndex(cluster, row)
	return c.tags[fi]<<c.tagShift | c.pdValue(cluster, row)<<c.piShift | addr.Addr(row)<<c.rowShift
}

// Contains implements cache.Cache.
func (c *BCache) Contains(a addr.Addr) bool {
	if c.degraded {
		row := c.row(a)
		cl := int(c.pi(a)) & (c.cfg.BAS - 1)
		w, bit := c.maskAt(cl, row)
		return c.valid[w]&bit != 0 && c.tags[c.frameIndex(cl, row)] == a>>(c.piShift+c.nb)
	}
	row := c.row(a)
	cl := c.lookupPD(row, c.pi(a))
	if cl < 0 {
		return false
	}
	w, bit := c.maskAt(cl, row)
	return c.valid[w]&bit != 0 && c.tags[c.frameIndex(cl, row)] == c.tagRem(a)
}

// Stats implements cache.Cache.
func (c *BCache) Stats() *cache.Stats { return c.stats }

// PDStats returns the programmable-decoder counters.
func (c *BCache) PDStats() PDStats { return c.pdStats }

// SetProbe implements cache.Probed. Passing nil detaches.
func (c *BCache) SetProbe(p cache.Probe) { c.probe = p }

// Probe implements cache.Probed.
func (c *BCache) Probe() cache.Probe { return c.probe }

// Geometry implements cache.Cache.
func (c *BCache) Geometry() cache.Geometry { return c.geom }

// Name implements cache.Cache.
func (c *BCache) Name() string {
	return fmt.Sprintf("%dkB-bcache-mf%d-bas%d-%s",
		c.cfg.SizeBytes/1024, c.cfg.MF, c.cfg.BAS, c.cfg.Policy)
}

// Reset implements cache.Cache.
func (c *BCache) Reset() {
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
	for i := range c.tags {
		c.tags[i] = 0
	}
	c.lru.Reset()
	for _, p := range c.policies {
		p.Reset()
	}
	c.stats.Reset()
	c.pdStats = PDStats{}
	c.degraded = false
	c.scrubRepairs = 0
}

// CheckInvariants verifies the structural properties the design depends
// on and returns the first violation found, if any:
//
//  1. Decoding uniqueness: within a row, valid PD entries are pairwise
//     distinct, so at most one word line can activate per access.
//  2. A valid line implies a valid (programmed) PD entry.
//  3. PD values fit in PDBits().
//  4. The packed representation is self-consistent: on the SWAR path a
//     lane reads laneInvalid exactly when its pdValid bit is clear.
func (c *BCache) CheckInvariants() error {
	if c.degraded {
		// Direct-mapped fallback: the PD is cleared and ignored, and
		// resident lines intentionally have no PD entries, so none of
		// the decoder invariants apply.
		return nil
	}
	maxPD := addr.Addr(1)<<(c.nb+c.nm) - 1
	for row := 0; row < c.rows; row++ {
		seen := make(map[addr.Addr]int, c.cfg.BAS)
		for cl := 0; cl < c.cfg.BAS; cl++ {
			w, bit := c.maskAt(cl, row)
			programmed := c.pdValid[w]&bit != 0
			if c.valid[w]&bit != 0 && !programmed {
				return fmt.Errorf("core: row %d cluster %d: valid line with unprogrammed PD", row, cl)
			}
			if c.swar {
				lane := c.pdWords[row] >> (uint(cl) * 8) & 0xFF
				if programmed == (lane == laneInvalid) {
					return fmt.Errorf("core: row %d cluster %d: PD lane %#x disagrees with valid bit %v", row, cl, lane, programmed)
				}
			}
			if !programmed {
				continue
			}
			pd := c.pdValue(cl, row)
			if pd > maxPD {
				return fmt.Errorf("core: row %d cluster %d: PD value %#x exceeds %d bits", row, cl, pd, c.nb+c.nm)
			}
			if prev, dup := seen[pd]; dup {
				return fmt.Errorf("core: row %d: clusters %d and %d share PD value %#x (decoding not unique)", row, prev, cl, pd)
			}
			seen[pd] = cl
		}
	}
	return nil
}

// Describe returns the address bit-field layout of this configuration,
// e.g. for the paper's 16 kB design:
//
//	tag[31:17] | PI: tag[16:14]+idx[13:11] | NPI: idx[10:5] | off[4:0]
//
// The PI field is the programmable decoder's CAM content; everything
// else decodes conventionally.
func (c *BCache) Describe() string {
	off := c.geom.OffsetBits()
	npi := c.geom.IndexBits() - c.nb
	loPI := off + npi
	hiPI := loPI + c.nb + c.nm
	return fmt.Sprintf("tag[%d:%d] | PI: tag[%d:%d]+idx[%d:%d] | NPI: idx[%d:%d] | off[%d:0]",
		addr.Bits-1, hiPI,
		hiPI-1, loPI+c.nb, loPI+c.nb-1, loPI,
		loPI-1, off,
		off-1)
}
