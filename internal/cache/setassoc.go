package cache

import (
	"fmt"
	"math/bits"

	"bcache/internal/addr"
	"bcache/internal/rng"
	"bcache/internal/stackdist"
)

// SetAssoc is an N-way set-associative cache with write-allocate,
// write-back semantics. Ways=1 gives a conventional direct-mapped cache
// (the paper's baseline); Sets=1 gives a fully-associative cache.
//
// Storage is structure-of-arrays: one flat tag array plus per-set valid
// and dirty bitmasks. The hit scan walks only the set's valid ways by
// iterating the presence bitmask, so sparse or wide sets (the 512-way
// fully-associative configurations in Table 4) never touch cold frames.
// Data contents are not simulated; only presence, identity, and
// dirtiness matter to the functional model.
//
// Wide sets additionally carry a hash index (stackdist.Index): a map
// from tag to the way's node on an intrusive recency list, making the
// tag match — and, for LRU, the victim search — O(1) instead of
// O(ways). FIFO and Random victims are already O(1) through the per-set
// policy, so for those kinds the index serves purely as the tag map. The
// index is a pure accelerator over the same tag/valid/dirty arrays — it
// is dropped (with a recency handoff to the per-set policy under LRU)
// the moment fault injection mutates those arrays underneath it, because
// a flipped tag bit can create aliases a one-entry-per-tag map cannot
// represent.
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

	// LRU recency is one stamp per frame, stamps[set*Ways+way], from one
	// cache-wide clock: within a set the stamps order the ways exactly
	// as a per-set clock would, and a flat slab costs a wide cache's
	// sets no policy objects. FIFO and Random keep one Policy per set
	// (policies, nil under LRU).
	stamps   []uint64
	clock    uint64
	policies []Policy
	stats    *Stats
	probe    Probe // nil unless observability is attached
	name     string

	// idx, when non-nil, holds one hash index per set (any policy at or
	// above faIndexMinWays ways). Under LRU, while active it is the
	// single source of recency truth; the stamps stay untouched until
	// dropIndex hands the order back. Under FIFO/Random the per-set
	// policy keeps advancing normally and the index is only the O(1) tag
	// map.
	idx []*stackdist.Index
}

// faIndexMinWays is the associativity at which a set gains a hash index.
// Narrow sets (the paper's 2..32-way sweeps) stay on the bitmask scan,
// which beats a map at that width; the 512-way fully-associative extreme
// is ~30× faster indexed. TestIndexCrossover asserts this threshold for
// every policy kind.
const faIndexMinWays = 64

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
		stats:     NewStats(geom.Frames),
		name:      fmt.Sprintf("%dkB-%dway-%s", size/1024, ways, kind),
	}
	if kind == LRU {
		c.stamps = make([]uint64, geom.Frames)
	} else {
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
	if ways >= faIndexMinWays {
		c.idx = make([]*stackdist.Index, geom.Sets)
		for s := range c.idx {
			c.idx[s] = stackdist.NewIndex(ways)
		}
	}
	return c, nil
}

// NewSetAssocScan builds the cache with the wide-set hash index disabled
// unconditionally: the linear-scan reference that differential tests and
// benchmarks compare the indexed fast path against.
func NewSetAssocScan(size, lineBytes, ways int, kind PolicyKind, src *rng.Source) (*SetAssoc, error) {
	c, err := NewSetAssoc(size, lineBytes, ways, kind, src)
	if err != nil {
		return nil, err
	}
	c.idx = nil
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

// touch records a use of way in set with the replacement policy.
func (c *SetAssoc) touch(set, way int) {
	if c.policies == nil {
		c.clock++
		c.stamps[set*c.geom.Ways+way] = c.clock
		return
	}
	c.policies[set].Touch(way)
}

// victim returns the way the replacement policy evicts from a full set:
// under LRU the lowest-numbered way with the oldest stamp, as the scan
// of a per-set lruPolicy picks it.
func (c *SetAssoc) victim(set int) int {
	if c.policies == nil {
		stamps := c.stamps[set*c.geom.Ways : (set+1)*c.geom.Ways]
		victim, best := 0, stamps[0]
		for w, s := range stamps[1:] {
			if s < best {
				victim, best = w+1, s
			}
		}
		return victim
	}
	return c.policies[set].Victim()
}

// wordMask returns the in-range way bits of the set's wi-th mask word.
func (c *SetAssoc) wordMask(wi int) uint64 {
	if wi == c.maskWords-1 {
		return c.tailMask
	}
	return ^uint64(0)
}

// findWay returns the way holding tag in set, or -1 — O(1) through the
// hash index when present, else scanning valid ways in ascending order.
func (c *SetAssoc) findWay(set int, tag addr.Addr) int {
	if c.idx != nil {
		if n := c.idx[set].Get(tag); n != nil {
			return int(n.Val)
		}
		return -1
	}
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
	if c.idx != nil {
		return c.accessIndexed(set, tag, write)
	}
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
		c.stats.Record(base+w, true, write)
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
	c.stats.Record(base+way, false, write)
	if c.probe != nil {
		c.probe.ObserveAccess(base+way, false, write)
	}
	return res
}

// accessIndexed is the Access path for sets carrying a hash index. It
// maintains the same tag/valid/dirty arrays and statistics as the scan
// path — only the tag match, the free-way choice, and (for LRU) the
// victim search change, and each is provably the same decision the scan
// path makes: ways fill in ascending order (nothing invalidates a line
// while the index is active), so the next free way is the resident
// count, and the recency-list tail is the minimum-stamp way the LRU
// policy would pick. FIFO and Random victims come from the per-set
// policy exactly as on the scan path — their policies are O(1) already,
// and keeping them advancing means dropIndex needs no state handoff —
// with the index resolving the victim way's tag to its node.
func (c *SetAssoc) accessIndexed(set int, tag addr.Addr, write bool) Result {
	base := set * c.geom.Ways
	mbase := set * c.maskWords
	ix := c.idx[set]

	if n := ix.Get(tag); n != nil {
		w := int(n.Val)
		if c.kind == LRU {
			ix.Touch(n)
		}
		if write {
			c.dirty[mbase+w>>6] |= 1 << (w & 63)
		}
		c.stats.Record(base+w, true, write)
		if c.probe != nil {
			c.probe.ObserveAccess(base+w, true, write)
		}
		return Result{Hit: true, Frame: base + w}
	}

	var res Result
	var way int
	if ix.Len() < c.geom.Ways {
		way = ix.Len()
	} else {
		victim := ix.LRU()
		if c.kind != LRU {
			victim = ix.Get(c.tags[base+c.victim(set)])
		}
		way = int(victim.Val)
		ix.Remove(victim)
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
	ix.Insert(tag, uint64(way))
	res.Frame = base + way
	c.stats.Record(base+way, false, write)
	if c.probe != nil {
		c.probe.ObserveAccess(base+way, false, write)
	}
	return res
}

// dropIndex permanently disables the hash index, handing each set's
// recency order to the stamps under LRU (tail-first touch replay
// reproduces the exact stamp order), so the scan path continues
// bit-identically. FIFO and Random policies advanced normally while the
// index was active, so they need no handoff. Fault injection calls this
// before mutating state: a flipped tag bit can alias two ways onto one
// map key, which the index cannot represent.
func (c *SetAssoc) dropIndex() {
	if c.idx == nil {
		return
	}
	if c.kind == LRU {
		for set, ix := range c.idx {
			for n := ix.LRU(); n != nil; n = ix.Prev(n) {
				c.touch(set, int(n.Val))
			}
		}
	}
	c.idx = nil
}

// SetProbe implements Probed. Passing nil detaches.
func (c *SetAssoc) SetProbe(p Probe) { c.probe = p }

// Contains implements Cache.
func (c *SetAssoc) Contains(a addr.Addr) bool {
	return c.findWay(int(a>>c.offBits&c.idxMask), a>>(c.offBits+c.idxBits)) >= 0
}

// lineAddr reconstructs the line-aligned byte address of (tag, set).
func (c *SetAssoc) lineAddr(tag addr.Addr, set int) addr.Addr {
	return tag<<(c.offBits+c.idxBits) | addr.Addr(set)<<c.offBits
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
	clear(c.stamps)
	c.clock = 0
	for _, p := range c.policies {
		p.Reset()
	}
	for _, ix := range c.idx {
		ix.Reset()
	}
	c.stats.Reset()
}
