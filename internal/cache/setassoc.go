package cache

import (
	"fmt"
	"math/bits"

	"bcache/internal/addr"
	"bcache/internal/rng"
)

// SetAssoc is an N-way set-associative cache with write-allocate,
// write-back semantics. Ways=1 gives a conventional direct-mapped cache
// (the paper's baseline); Sets=1 gives a fully-associative cache.
//
// Storage is structure-of-arrays: one flat tag array plus per-set valid
// and dirty bitmasks. The hit scan walks only the set's valid ways by
// iterating the presence bitmask, so sparse or wide sets never touch
// cold frames. The scan is the only lookup, at every width: the
// experiments build caches of at most 32 ways, where it beats a hash
// map, and it stays faithful to metadata that fault injection corrupts.
// Data contents are not simulated; only presence, identity, and
// dirtiness matter to the functional model.
type SetAssoc struct {
	geom Geometry
	kind PolicyKind

	// Precomputed address-field shifts so Access never re-derives
	// geometry logarithms.
	offBits uint
	idxBits uint
	idxMask addr.Addr // Sets - 1

	// tags[set*Ways + way] is the way's tag; its bit in the set's valid
	// mask says whether the frame holds a line at all.
	tags []addr.Addr

	// valid and dirty are per-set bitmasks, maskWords words per set, way
	// w at bit (w%64) of word w/64. maskWords = ceil(Ways/64).
	valid     []uint64
	dirty     []uint64
	maskWords int
	tailMask  uint64 // in-range way bits of a set's last mask word

	// lru is the LRU recency of every set in one slab (Stamps). A
	// direct-mapped LRU cache leaves it empty: its one way is always the
	// victim. fifo is FIFO's slab, one insertion pointer per set: the
	// way the full set evicts next. Random keeps one Policy per set
	// (policies, nil under LRU and FIFO), even at one way, where the
	// Random draw is still part of the stream.
	lru      Stamps
	fifo     []uint32
	policies []Policy
	stats    *Stats
	probe    Probe // nil unless observability is attached
	name     string
}

var _ Cache = (*SetAssoc)(nil)

// NewSetAssoc builds a set-associative cache. src seeds the random
// replacement policy and may be nil for LRU/FIFO.
func NewSetAssoc(size, lineBytes, ways int, kind PolicyKind, src *rng.Source) (*SetAssoc, error) {
	geom, err := NewGeometry(size, lineBytes, ways)
	if err != nil {
		return nil, err
	}
	mw := (ways + 63) / 64
	tail := ^uint64(0)
	if r := ways % 64; r != 0 {
		tail = 1<<r - 1
	}
	c := &SetAssoc{
		geom:      geom,
		kind:      kind,
		offBits:   geom.OffsetBits(),
		idxBits:   geom.IndexBits(),
		idxMask:   addr.Addr(geom.Sets - 1),
		tags:      make([]addr.Addr, geom.Frames),
		valid:     make([]uint64, geom.Sets*mw),
		dirty:     make([]uint64, geom.Sets*mw),
		maskWords: mw,
		tailMask:  tail,
		stats:     NewStats(),
		name:      fmt.Sprintf("%dkB-%dway-%s", size/1024, ways, kind),
	}
	switch kind {
	case LRU:
		if ways > 1 {
			c.lru = NewStamps(geom.Sets, ways)
		}
	case FIFO:
		c.fifo = make([]uint32, geom.Sets)
	default:
		c.policies = make([]Policy, geom.Sets)
		for s := range c.policies {
			ps := src
			if kind == Random && src != nil {
				// Each set draws from its own stream split off the caller's
				// source, so per-set victim sequences are a function of the
				// set alone — replaying sets in any order (or in parallel)
				// yields bit-identical results.
				ps = src.Split(uint64(s))
			}
			c.policies[s] = NewPolicy(kind, ways, ps)
		}
	}
	return c, nil
}

// NewDirectMapped builds the paper's baseline: a direct-mapped cache.
func NewDirectMapped(size, lineBytes int) (*SetAssoc, error) {
	c, err := NewSetAssoc(size, lineBytes, 1, LRU, nil)
	if err != nil {
		return nil, err
	}
	c.name = fmt.Sprintf("%dkB-directmapped", size/1024)
	return c, nil
}

// NewFullyAssoc builds a fully-associative cache of the given size.
func NewFullyAssoc(size, lineBytes int, kind PolicyKind, src *rng.Source) (*SetAssoc, error) {
	c, err := NewSetAssoc(size, lineBytes, size/lineBytes, kind, src)
	if err != nil {
		return nil, err
	}
	c.name = fmt.Sprintf("%dkB-fullyassoc-%s", size/1024, kind)
	return c, nil
}

// touch records a use of way in set with the replacement policy. Only
// LRU keeps recency: FIFO and Random ignore hits.
func (c *SetAssoc) touch(set, way int) {
	if c.kind == LRU {
		c.lru.Touch(set, way)
	}
}

// victim returns the way the replacement policy evicts from a full set.
// FIFO's pointer wraps with a mask: the way count is a power of two.
func (c *SetAssoc) victim(set int) int {
	switch {
	case c.fifo != nil:
		v := c.fifo[set]
		c.fifo[set] = (v + 1) & uint32(c.geom.Ways-1)
		return int(v)
	case c.policies != nil:
		return c.policies[set].Victim()
	case c.geom.Ways == 1:
		return 0
	}
	return c.lru.Victim(set)
}

// wordMask returns the in-range way bits of the set's wi-th mask word.
func (c *SetAssoc) wordMask(wi int) uint64 {
	if wi == c.maskWords-1 {
		return c.tailMask
	}
	return ^uint64(0)
}

// findWay returns the way holding tag in set, or -1, scanning valid ways
// in ascending order.
func (c *SetAssoc) findWay(set int, tag addr.Addr) int {
	if c.geom.Ways == 1 {
		// Direct-mapped: one way, one valid bit, one tag — the paper's
		// dominant configuration skips the bitmask scan machinery.
		if c.valid[set]&1 != 0 && c.tags[set] == tag {
			return 0
		}
		return -1
	}
	base := set * c.geom.Ways
	mbase := set * c.maskWords
	for wi := 0; wi < c.maskWords; wi++ {
		for m := c.valid[mbase+wi]; m != 0; m &= m - 1 {
			w := wi<<6 + bits.TrailingZeros64(m)
			if c.tags[base+w] == tag {
				return w
			}
		}
	}
	return -1
}

// Access implements Cache.
func (c *SetAssoc) Access(a addr.Addr, write bool) Result {
	set := int(a >> c.offBits & c.idxMask)
	tag := a >> (c.offBits + c.idxBits)
	base := set * c.geom.Ways
	mbase := set * c.maskWords

	// Hit path. A 1-way set skips the recency update: Touch never draws
	// randomness and a single way is always its own victim, so the
	// policy state is unobservable there.
	if w := c.findWay(set, tag); w >= 0 {
		if c.geom.Ways > 1 {
			c.touch(set, w)
		}
		if write {
			c.dirty[mbase+w>>6] |= 1 << (w & 63)
		}
		c.stats.Record(true, write)
		if c.probe != nil {
			c.probe.ObserveAccess(base+w, true, write)
		}
		return Result{Hit: true, Frame: base + w}
	}

	// Miss: prefer an invalid way, else ask the policy for a victim.
	way := -1
	for wi := 0; wi < c.maskWords; wi++ {
		if free := ^c.valid[mbase+wi] & c.wordMask(wi); free != 0 {
			way = wi<<6 + bits.TrailingZeros64(free)
			break
		}
	}
	var res Result
	if way < 0 {
		// Victim is consulted even for 1-way sets: a Random policy
		// draws from the shared rng stream, and skipping the draw
		// would shift every later pick.
		way = c.victim(set)
		res.Evicted = true
		res.EvictedAddr = c.lineAddr(c.tags[base+way], set)
		res.EvictedDirty = c.dirty[mbase+way>>6]&(1<<(way&63)) != 0
		c.stats.RecordEviction(res.EvictedDirty)
		if c.probe != nil {
			c.probe.ObserveEvict(res.EvictedDirty)
		}
	}
	c.tags[base+way] = tag
	c.valid[mbase+way>>6] |= 1 << (way & 63)
	if write {
		c.dirty[mbase+way>>6] |= 1 << (way & 63)
	} else {
		c.dirty[mbase+way>>6] &^= 1 << (way & 63)
	}
	if c.geom.Ways > 1 {
		c.touch(set, way)
	}
	res.Frame = base + way
	c.stats.Record(false, write)
	if c.probe != nil {
		c.probe.ObserveAccess(base+way, false, write)
	}
	return res
}

// SetProbe implements Probed. Passing nil detaches.
func (c *SetAssoc) SetProbe(p Probe) { c.probe = p }

// Probe implements Probed.
func (c *SetAssoc) Probe() Probe { return c.probe }

// Contains implements Cache.
func (c *SetAssoc) Contains(a addr.Addr) bool {
	return c.findWay(int(a>>c.offBits&c.idxMask), a>>(c.offBits+c.idxBits)) >= 0
}

// lineAddr reconstructs the line-aligned byte address of (tag, set).
func (c *SetAssoc) lineAddr(tag addr.Addr, set int) addr.Addr {
	return tag<<(c.offBits+c.idxBits) | addr.Addr(set)<<c.offBits
}

// Slab returns the cache's arrays — tags[set*Ways+way], and the valid
// and dirty masks, maskWords words per set — for a replay kernel
// outside the package that keeps them in locals across a chunk, as
// Stamps.Slab does the LRU stamps. The kernel changes them exactly as
// Access would, and books the counters into Stats itself.
func (c *SetAssoc) Slab() (tags []addr.Addr, valid, dirty []uint64) {
	return c.tags, c.valid, c.dirty
}

// Stats implements Cache.
func (c *SetAssoc) Stats() *Stats { return c.stats }

// Geometry implements Cache.
func (c *SetAssoc) Geometry() Geometry { return c.geom }

// Name implements Cache.
func (c *SetAssoc) Name() string { return c.name }

// Policy returns the replacement policy family in use.
func (c *SetAssoc) Policy() PolicyKind { return c.kind }

// Reset implements Cache.
func (c *SetAssoc) Reset() {
	clear(c.tags)
	clear(c.valid)
	clear(c.dirty)
	c.lru.Reset()
	clear(c.fifo)
	for _, p := range c.policies {
		p.Reset()
	}
	c.stats.Reset()
}

var _ Replayer = (*SetAssoc)(nil)

// Replay implements Replayer. An unprobed LRU or FIFO cache of at most
// 64 ways — direct-mapped, 2-, 4- and 8-way LRU, the timed model's L1s,
// and the 32-way FIFO HAC — runs the whole stream in one loop
// (replayScan); a probed cache loops over Access, since a probe needs
// its per-access events, and so do Random caches and wider ones, which
// no experiment replays.
func (c *SetAssoc) Replay(stream []MemAccess, ev *[]Event) {
	if c.probe != nil || c.policies != nil || c.maskWords != 1 {
		ReplayEach(c, stream, ev)
		return
	}
	c.replayScan(stream, ev)
}

// replayScan is Access's scan path for a narrow LRU or FIFO cache over
// a whole stream, with the geometry, the arrays, the stamp clock and
// the counters in locals. A set's valid and dirty masks are one word,
// so the set indexes them directly. The write flag enters the dirty
// mask and the write count as a 0 or 1, not a branch. Stats and the
// clock are written back once, at the end.
func (c *SetAssoc) replayScan(stream []MemAccess, ev *[]Event) {
	offBits, idxMask, tagShift := c.offBits, c.idxMask, c.offBits+c.idxBits
	ways, full := c.geom.Ways, c.tailMask
	tags, valid, dirty := c.tags, c.valid, c.dirty
	stamp, clock := c.lru.Slab()
	fifo, wayMask := c.fifo, uint32(ways-1)
	touch := c.kind == LRU && ways > 1 // a direct-mapped set's one way needs no recency
	if ev != nil && uint64(len(stream)) > 1<<32 {
		panic("cache: stream too long for Event indices")
	}
	var writes, hits, evictions, writebacks uint64
	for i, m := range stream {
		a := addr.Addr(m >> 1)
		wr := uint64(m & 1)
		writes += wr
		set := int(a >> offBits & idxMask)
		tag := a >> tagShift
		base := set * ways
		v := valid[set]
		way := -1
		if ways == 1 {
			if v != 0 && tags[set] == tag {
				way = 0
			}
		} else {
			for vm := v; vm != 0; vm &= vm - 1 {
				if w := bits.TrailingZeros64(vm); tags[base+w] == tag {
					way = w
					break
				}
			}
		}
		if way >= 0 {
			if touch {
				clock++
				stamp[base+way] = clock
			}
			dirty[set] |= wr << uint(way)
			hits++
			continue
		}
		// Miss: the lowest invalid way, else FIFO's pointer, else
		// Stamps.Victim's lowest way with the oldest stamp.
		if free := ^v & full; free != 0 {
			way = bits.TrailingZeros64(free)
		} else {
			switch {
			case fifo != nil:
				way = int(fifo[set])
				fifo[set] = uint32(way+1) & wayMask
			case ways == 1:
				way = 0
			default:
				st := stamp[base : base+ways]
				best := st[0]
				way = 0
				for w, s := range st[1:] {
					if s < best {
						way, best = w+1, s
					}
				}
			}
			evictions++
			writebacks += dirty[set] >> uint(way) & 1
		}
		bit := uint64(1) << uint(way)
		if ev != nil {
			// Before the refill overwrites the victim's tag.
			e := Event{Index: uint32(i), Miss: true}
			if v&dirty[set]&bit != 0 {
				e.Dirty, e.Victim = true, c.lineAddr(tags[base+way], set)
			}
			*ev = append(*ev, e)
		}
		tags[base+way] = tag
		valid[set] |= bit
		dirty[set] = dirty[set]&^bit | wr<<uint(way)
		if touch {
			clock++
			stamp[base+way] = clock
		}
	}
	c.lru.SetClock(clock)
	n := uint64(len(stream))
	st := c.stats
	st.Accesses += n
	st.Hits += hits
	st.Misses += n - hits
	st.Writes += writes
	st.Reads += n - writes
	st.Evictions += evictions
	st.Writebacks += writebacks
}
