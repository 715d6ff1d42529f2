package core

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
)

// scalarFrame is one line frame plus its programmable-decoder entry, in the
// array-of-structs layout the optimized kernel replaced.
type scalarFrame struct {
	pdValid bool
	pd      addr.Addr // PI-bit programmable index value
	valid   bool
	dirty   bool
	tag     addr.Addr // tag bits above the PI field
}

// Reference is the scalar array-of-structs B-Cache implementation, kept
// verbatim as the semantic oracle for the optimized SWAR kernel in
// BCache. Every observable behaviour — hit/miss outcomes, evictions,
// statistics, PD counters, replacement-policy interaction order — must
// match BCache access for access; differential_test.go enforces this
// across the MF × BAS × policy grid.
//
// It trades speed for obviousness: one struct per frame, a plain loop
// over the row's BAS candidates in lookupPD. Use BCache everywhere else.
type Reference struct {
	cfg  Config
	geom cache.Geometry // ways = 1: the B-Cache is direct-mapped

	nb   uint // log2(BAS)
	nm   uint // log2(MF)
	rows int  // 2^NPI where NPI = OI - nb

	// frames[cluster*rows + row]; the row's candidates are the BAS frames
	// at (c*rows + row) for c = 0..BAS-1 (paper Figure 2's clusters).
	frames   []scalarFrame
	policies []cache.Policy // one per row, arbitrating the BAS clusters

	stats   *cache.Stats
	pdStats PDStats
	probe   cache.Probe // nil unless observability is attached
}

var _ cache.Cache = (*Reference)(nil)

// NewReference validates cfg and builds the scalar reference B-Cache.
func NewReference(cfg Config) (*Reference, error) {
	geom, nb, nm, err := validate(cfg)
	if err != nil {
		return nil, err
	}
	var src *rng.Source
	if cfg.Policy == cache.Random {
		src = rng.New(cfg.Seed)
	}
	c := &Reference{
		cfg:   cfg,
		geom:  geom,
		nb:    nb,
		nm:    nm,
		rows:  1 << (geom.IndexBits() - nb),
		stats: cache.NewStats(),
	}
	c.frames = make([]scalarFrame, geom.Frames)
	c.policies = make([]cache.Policy, c.rows)
	for r := range c.policies {
		c.policies[r] = cache.NewPolicy(cfg.Policy, cfg.BAS, src)
	}
	return c, nil
}

// Config returns the configuration the cache was built with.
func (c *Reference) Config() Config { return c.cfg }

// row extracts the non-programmable index of a.
func (c *Reference) row(a addr.Addr) int {
	return int(addr.Field(a, c.geom.OffsetBits(), c.geom.IndexBits()-c.nb))
}

// pi extracts the programmable index of a: the top log2(BAS) original
// index bits plus the adjacent low log2(MF) tag bits.
func (c *Reference) pi(a addr.Addr) addr.Addr {
	return addr.Field(a, c.geom.OffsetBits()+c.geom.IndexBits()-c.nb, c.nb+c.nm)
}

// tagRem extracts the tag bits not covered by the PD.
func (c *Reference) tagRem(a addr.Addr) addr.Addr {
	return a >> (c.geom.OffsetBits() + c.geom.IndexBits() + c.nm)
}

// frameIndex maps (cluster, row) to the physical frame index.
func (c *Reference) frameIndex(cluster, row int) int { return cluster*c.rows + row }

// lookupPD returns the cluster whose PD entry matches a's programmable
// index in a's row, or -1. At most one can match (decoding uniqueness).
func (c *Reference) lookupPD(a addr.Addr) int {
	row := c.row(a)
	pi := c.pi(a)
	for cl := 0; cl < c.cfg.BAS; cl++ {
		f := &c.frames[c.frameIndex(cl, row)]
		if f.pdValid && f.pd == pi {
			return cl
		}
	}
	return -1
}

// Access implements cache.Cache.
func (c *Reference) Access(a addr.Addr, write bool) cache.Result {
	row := c.row(a)
	pi := c.pi(a)
	tag := c.tagRem(a)
	pol := c.policies[row]

	if cl := c.lookupPD(a); cl >= 0 {
		fi := c.frameIndex(cl, row)
		f := &c.frames[fi]
		if f.valid && f.tag == tag {
			// Cache hit: single activated word line, one cycle.
			pol.Touch(cl)
			if write {
				f.dirty = true
			}
			c.pdStats.HitPD++
			c.stats.Record(true, write)
			if c.probe != nil {
				c.probe.ObserveAccess(fi, true, write)
			}
			return cache.Result{Hit: true, Frame: fi}
		}
		// PD hit, cache miss: unique decoding forces this frame as the
		// victim (paper §2.3). The replacement policy cannot help here.
		c.pdStats.MissPDHit++
		res := c.refill(fi, scalarFrame{pdValid: true, pd: pi, valid: true, dirty: write, tag: tag}, row, cl)
		c.stats.Record(false, write)
		if c.probe != nil {
			c.probe.ObservePD(true)
			c.probe.ObserveAccess(fi, false, write)
		}
		return res
	}

	// PD miss: the miss is predetermined (no data or tag array read).
	c.pdStats.MissPDMiss++
	cl := -1
	for k := 0; k < c.cfg.BAS; k++ { // cold start: program invalid entries first
		if !c.frames[c.frameIndex(k, row)].pdValid {
			cl = k
			break
		}
	}
	if cl < 0 {
		cl = pol.Victim()
	}
	fi := c.frameIndex(cl, row)
	c.pdStats.Programmed++
	res := c.refill(fi, scalarFrame{pdValid: true, pd: pi, valid: true, dirty: write, tag: tag}, row, cl)
	c.stats.Record(false, write)
	if c.probe != nil {
		c.probe.ObservePD(false)
		c.probe.ObserveReprogram()
		c.probe.ObserveAccess(fi, false, write)
	}
	return res
}

// refill replaces frames[fi] with nf, reporting any eviction, and touches
// the replacement state.
func (c *Reference) refill(fi int, nf scalarFrame, row, cluster int) cache.Result {
	old := c.frames[fi]
	res := cache.Result{Frame: fi}
	if old.valid {
		res.Evicted = true
		res.EvictedAddr = c.frameLineAddr(old, row)
		res.EvictedDirty = old.dirty
		c.stats.RecordEviction(old.dirty)
		if c.probe != nil {
			c.probe.ObserveEvict(old.dirty)
		}
	}
	c.frames[fi] = nf
	c.policies[row].Touch(cluster)
	return res
}

// frameLineAddr reconstructs the line-aligned address cached in f.
func (c *Reference) frameLineAddr(f scalarFrame, row int) addr.Addr {
	off := c.geom.OffsetBits()
	npi := c.geom.IndexBits() - c.nb
	return f.tag<<(off+npi+c.nb+c.nm) | f.pd<<(off+npi) | addr.Addr(row)<<off
}

// Contains implements cache.Cache.
func (c *Reference) Contains(a addr.Addr) bool {
	cl := c.lookupPD(a)
	if cl < 0 {
		return false
	}
	f := &c.frames[c.frameIndex(cl, c.row(a))]
	return f.valid && f.tag == c.tagRem(a)
}

// Stats implements cache.Cache.
func (c *Reference) Stats() *cache.Stats { return c.stats }

// PDStats returns the programmable-decoder counters.
func (c *Reference) PDStats() PDStats { return c.pdStats }

// SetProbe implements cache.Probed. Passing nil detaches.
func (c *Reference) SetProbe(p cache.Probe) { c.probe = p }

// Probe implements cache.Probed.
func (c *Reference) Probe() cache.Probe { return c.probe }

// Geometry implements cache.Cache.
func (c *Reference) Geometry() cache.Geometry { return c.geom }

// Name implements cache.Cache.
func (c *Reference) Name() string {
	return fmt.Sprintf("%dkB-bcache-mf%d-bas%d-%s-ref",
		c.cfg.SizeBytes/1024, c.cfg.MF, c.cfg.BAS, c.cfg.Policy)
}

// Reset implements cache.Cache.
func (c *Reference) Reset() {
	for i := range c.frames {
		c.frames[i] = scalarFrame{}
	}
	for _, p := range c.policies {
		p.Reset()
	}
	c.stats.Reset()
	c.pdStats = PDStats{}
}

// CheckInvariants verifies the same structural properties as
// (*BCache).CheckInvariants on the reference representation.
func (c *Reference) CheckInvariants() error {
	maxPD := addr.Addr(1)<<(c.nb+c.nm) - 1
	for row := 0; row < c.rows; row++ {
		seen := make(map[addr.Addr]int, c.cfg.BAS)
		for cl := 0; cl < c.cfg.BAS; cl++ {
			f := &c.frames[c.frameIndex(cl, row)]
			if f.valid && !f.pdValid {
				return fmt.Errorf("core: row %d cluster %d: valid line with unprogrammed PD", row, cl)
			}
			if !f.pdValid {
				continue
			}
			if f.pd > maxPD {
				return fmt.Errorf("core: row %d cluster %d: PD value %#x exceeds %d bits", row, cl, f.pd, c.nb+c.nm)
			}
			if prev, dup := seen[f.pd]; dup {
				return fmt.Errorf("core: row %d: clusters %d and %d share PD value %#x (decoding not unique)", row, prev, cl, f.pd)
			}
			seen[f.pd] = cl
		}
	}
	return nil
}
