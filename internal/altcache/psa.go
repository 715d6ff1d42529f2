package altcache

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
)

// PSA is the predictive sequential associative cache (Calder, Grunwald &
// Emer), a §2.1 comparator: a direct-mapped array probed with two hash
// functions (like the column-associative cache) plus a steering-bit table
// that predicts which probe to try first. A correct prediction hits in
// one cycle; a wrong one costs a second probe.
type PSA struct {
	geom  cache.Geometry
	lines []columnLine
	// steer[predIndex] selects the first probe (0 = natural index,
	// 1 = flipped index).
	steer    []uint8
	predBits uint
	stats    *cache.Stats

	// FirstProbeHits and SecondProbeHits split the hits by latency.
	FirstProbeHits  uint64
	SecondProbeHits uint64
}

var _ cache.Cache = (*PSA)(nil)

// NewPSA builds a predictive sequential associative cache whose steering
// table has 2^predBits entries (indexed by low block-address bits).
func NewPSA(size, lineBytes int, predBits uint) (*PSA, error) {
	geom, err := cache.NewGeometry(size, lineBytes, 1)
	if err != nil {
		return nil, err
	}
	if geom.Sets < 2 {
		return nil, fmt.Errorf("altcache: PSA needs at least 2 sets")
	}
	if predBits == 0 || predBits > 20 {
		return nil, fmt.Errorf("altcache: bad steering table size 2^%d", predBits)
	}
	return &PSA{
		geom:     geom,
		lines:    make([]columnLine, geom.Frames),
		steer:    make([]uint8, 1<<predBits),
		predBits: predBits,
		stats:    cache.NewStats(),
	}, nil
}

func (c *PSA) flip(set int) int { return set ^ (c.geom.Sets >> 1) }

// predIndex hashes a block address into the steering table.
func (c *PSA) predIndex(block addr.Addr) int {
	return int(addr.Field(block, 0, c.predBits))
}

// probes returns the two candidate sets in predicted order.
func (c *PSA) probes(block addr.Addr) (first, second, pi int) {
	s := int(addr.Field(block, 0, c.geom.IndexBits()))
	pi = c.predIndex(block)
	if c.steer[pi] == 0 {
		return s, c.flip(s), pi
	}
	return c.flip(s), s, pi
}

// Access implements cache.Cache.
func (c *PSA) Access(a addr.Addr, write bool) cache.Result {
	block := c.geom.Block(a)
	first, second, pi := c.probes(block)

	if l := &c.lines[first]; l.valid && l.block == block {
		c.FirstProbeHits++
		if write {
			l.dirty = true
		}
		c.stats.Record(true, write)
		return cache.Result{Hit: true, Frame: first}
	}
	if l := &c.lines[second]; l.valid && l.block == block {
		// Misprediction: second probe, extra cycle; flip the steering
		// bit so the next access to this block predicts right.
		c.SecondProbeHits++
		c.steer[pi] ^= 1
		if write {
			l.dirty = true
		}
		c.stats.Record(true, write)
		return cache.Result{Hit: true, Frame: second, ExtraLatency: 1}
	}

	// Miss: fill the natural position, demoting its resident (if it is a
	// natural-position line) to the alternate set — column-associative
	// replacement with the steering table reset to the natural probe.
	s := c.geom.Index(a)
	alt := c.flip(s)
	var res cache.Result
	l := &c.lines[s]
	if !l.valid || l.rehash {
		res = c.fill(s, block, write)
	} else {
		demoted := *l
		demoted.rehash = true
		old := c.lines[alt]
		c.lines[alt] = demoted
		if old.valid {
			res.Evicted = true
			res.EvictedAddr = old.block << c.geom.OffsetBits()
			res.EvictedDirty = old.dirty
			c.stats.RecordEviction(old.dirty)
		}
		c.lines[s] = columnLine{valid: true, dirty: write, block: block}
		res.Frame = s
	}
	c.steer[pi] = 0
	c.stats.Record(false, write)
	return res
}

func (c *PSA) fill(set int, block addr.Addr, write bool) cache.Result {
	old := c.lines[set]
	res := cache.Result{Frame: set}
	if old.valid {
		res.Evicted = true
		res.EvictedAddr = old.block << c.geom.OffsetBits()
		res.EvictedDirty = old.dirty
		c.stats.RecordEviction(old.dirty)
	}
	c.lines[set] = columnLine{valid: true, dirty: write, block: block}
	return res
}

// PredictionRate returns the fraction of hits served by the first probe.
func (c *PSA) PredictionRate() float64 {
	total := c.FirstProbeHits + c.SecondProbeHits
	if total == 0 {
		return 0
	}
	return float64(c.FirstProbeHits) / float64(total)
}

// Contains implements cache.Cache.
func (c *PSA) Contains(a addr.Addr) bool {
	block := c.geom.Block(a)
	s := c.geom.Index(a)
	l1, l2 := &c.lines[s], &c.lines[c.flip(s)]
	return (l1.valid && l1.block == block) || (l2.valid && l2.block == block)
}

// Stats implements cache.Cache.
func (c *PSA) Stats() *cache.Stats { return c.stats }

// Geometry implements cache.Cache.
func (c *PSA) Geometry() cache.Geometry { return c.geom }

// Name implements cache.Cache.
func (c *PSA) Name() string { return fmt.Sprintf("%dkB-psa", c.geom.SizeBytes/1024) }

// Reset implements cache.Cache.
func (c *PSA) Reset() {
	for i := range c.lines {
		c.lines[i] = columnLine{}
	}
	for i := range c.steer {
		c.steer[i] = 0
	}
	c.FirstProbeHits, c.SecondProbeHits = 0, 0
	c.stats.Reset()
}
