package stackdist

import (
	"fmt"

	"bcache/internal/addr"
)

// FIFO queue-distance profiling.
//
// A W-way FIFO set evicts strictly in insertion order: hits do not touch
// replacement state (Touch is a no-op), free ways fill in ascending
// order, and the round-robin victim counter then cycles through the ways
// in that same order. A block inserted as the set's q-th insertion is
// therefore resident exactly while the set has seen fewer than W further
// insertions — its "queue distance" cnt-q is below W. That answers
// hit/miss for any associativity from two integers per (block, geometry):
// the set's running insertion count and the block's last insertion
// number.
//
// Unlike LRU, FIFO is not a stack algorithm: it lacks the inclusion
// property (Belady's anomaly — a larger FIFO can miss more), so one
// profiled geometry cannot answer smaller associativities the way the
// Mattson profiler (Profile) can. Each requested (sets, ways) geometry
// carries its own insertion counters and positions. What the single pass
// amortizes instead is everything per-access: one shared block→positions
// hash lookup serves every geometry, so profiling G geometries costs one
// map probe plus G subtractions per access — not G cache replays.

// fifoGeom is the per-geometry queue state of a FIFOProfile.
type fifoGeom struct {
	sets    int
	ways    int
	setMask addr.Addr // sets - 1
	// cnt[set] counts insertions (misses) into the set, 1-based positions.
	cnt    []uint64
	misses uint64
}

// FIFOProfile profiles one address stream against several FIFO
// (sets, ways) geometries simultaneously, in a single pass. It mirrors
// Profile's API for LRU.
type FIFOProfile struct {
	lineShift uint
	geoms     []fifoGeom
	// blocks maps a line address to its slot in pos: slot*len(geoms) is
	// the block's last 1-based insertion position per geometry (0 = never
	// inserted there).
	blocks map[addr.Addr]uint32
	pos    []uint64
	total  uint64
}

// NewFIFOProfile builds a profile for streams of byte addresses with the
// given line size, able to answer every FIFO geometry in geoms.
// Duplicate geometries collapse to one.
func NewFIFOProfile(lineBytes int, geoms []Geom) (*FIFOProfile, error) {
	if lineBytes <= 0 || !addr.IsPow2(uint64(lineBytes)) {
		return nil, fmt.Errorf("stackdist: line size %d is not a positive power of two", lineBytes)
	}
	if len(geoms) == 0 {
		return nil, fmt.Errorf("stackdist: no geometries")
	}
	p := &FIFOProfile{
		lineShift: addr.Log2(uint64(lineBytes)),
		blocks:    make(map[addr.Addr]uint32),
	}
	seen := map[Geom]bool{}
	for _, g := range geoms {
		if g.Ways <= 0 {
			return nil, fmt.Errorf("stackdist: non-positive ways %d", g.Ways)
		}
		if g.Sets <= 0 || !addr.IsPow2(uint64(g.Sets)) {
			return nil, fmt.Errorf("stackdist: set count %d is not a positive power of two", g.Sets)
		}
		if g.Victim != 0 {
			return nil, fmt.Errorf("stackdist: a FIFO profile has no victim buffer (geometry %+v)", g)
		}
		if seen[g] {
			continue
		}
		seen[g] = true
		p.geoms = append(p.geoms, fifoGeom{
			sets:    g.Sets,
			ways:    g.Ways,
			setMask: addr.Addr(g.Sets - 1),
			cnt:     make([]uint64, g.Sets),
		})
	}
	return p, nil
}

// Access records one byte-address access against every geometry.
func (p *FIFOProfile) Access(a addr.Addr) {
	block := a >> p.lineShift
	p.total++
	k := len(p.geoms)
	slot, ok := p.blocks[block]
	if !ok {
		slot = uint32(len(p.pos) / k)
		p.blocks[block] = slot
		for i := 0; i < k; i++ {
			p.pos = append(p.pos, 0)
		}
	}
	pos := p.pos[int(slot)*k : int(slot)*k+k : int(slot)*k+k]
	for gi := range p.geoms {
		g := &p.geoms[gi]
		set := block & g.setMask
		c := g.cnt[set]
		if q := pos[gi]; q != 0 && c-q < uint64(g.ways) {
			continue // resident: a FIFO hit changes no replacement state
		}
		g.misses++
		g.cnt[set] = c + 1
		pos[gi] = c + 1
	}
}

// Accesses returns the number of recorded accesses.
func (p *FIFOProfile) Accesses() uint64 { return p.total }

// Misses returns the miss count a (sets, ways) FIFO cache would record
// over the profiled stream. The exact geometry must have been requested
// at construction — FIFO's missing inclusion property means no geometry
// can be derived from another.
func (p *FIFOProfile) Misses(sets, ways int) (uint64, error) {
	for i := range p.geoms {
		if g := &p.geoms[i]; g.sets == sets && g.ways == ways {
			return g.misses, nil
		}
	}
	return 0, fmt.Errorf("stackdist: FIFO geometry %dx%d was not profiled", sets, ways)
}
