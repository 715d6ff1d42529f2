package altcache

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
)

// Skewed is a 2-way skewed-associative cache (Seznec): two banks indexed
// by different XOR-based hashes of the address, so lines that conflict in
// one bank usually do not conflict in the other. The paper credits it
// with the miss rate of a 4-way cache (§7.1) at 2-way hardware cost.
type Skewed struct {
	geom     cache.Geometry // ways = 2 for reporting; banks are Sets each
	bankSets int
	banks    [2][]columnLine
	src      *rng.Source
	stats    *cache.Stats
}

var _ cache.Cache = (*Skewed)(nil)

// NewSkewed builds a 2-way skewed-associative cache. src drives the
// pseudo-random replacement choice between banks and must not be nil.
func NewSkewed(size, lineBytes int, src *rng.Source) (*Skewed, error) {
	geom, err := cache.NewGeometry(size, lineBytes, 2)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("altcache: skewed cache requires an rng source")
	}
	s := &Skewed{geom: geom, bankSets: geom.Sets, src: src, stats: cache.NewStats()}
	s.banks[0] = make([]columnLine, s.bankSets)
	s.banks[1] = make([]columnLine, s.bankSets)
	return s, nil
}

// bankIndex computes the skewing function for the given bank: the index
// bits XORed with a bank-specific mix of the next-higher address bits
// (Seznec's inter-bank dispersion).
func (s *Skewed) bankIndex(bank int, block addr.Addr) int {
	n := s.geom.IndexBits()
	lo := addr.Field(block, 0, n)
	hi := addr.Field(block, n, n)
	switch bank {
	case 0:
		return int(lo ^ hi)
	default:
		// Rotate the high field by one bit before mixing so the two
		// functions disperse differently.
		rot := (hi >> 1) | (hi&1)<<(n-1)
		return int(lo ^ rot)
	}
}

// frame maps (bank, set) to a physical frame index for statistics.
func (s *Skewed) frame(bank, set int) int { return bank*s.bankSets + set }

// Access implements cache.Cache.
func (s *Skewed) Access(a addr.Addr, write bool) cache.Result {
	block := s.geom.Block(a)
	i0 := s.bankIndex(0, block)
	i1 := s.bankIndex(1, block)

	for b, idx := range [2]int{i0, i1} {
		l := &s.banks[b][idx]
		if l.valid && l.block == block {
			if write {
				l.dirty = true
			}
			s.stats.Record(true, write)
			return cache.Result{Hit: true, Frame: s.frame(b, idx)}
		}
	}

	// Miss: prefer an invalid candidate, else a pseudo-random bank.
	bank, idx := 0, i0
	switch {
	case !s.banks[0][i0].valid:
	case !s.banks[1][i1].valid:
		bank, idx = 1, i1
	default:
		if s.src.Intn(2) == 1 {
			bank, idx = 1, i1
		}
	}
	old := s.banks[bank][idx]
	res := cache.Result{Frame: s.frame(bank, idx)}
	if old.valid {
		res.Evicted = true
		res.EvictedAddr = old.block << s.geom.OffsetBits()
		res.EvictedDirty = old.dirty
		s.stats.RecordEviction(old.dirty)
	}
	s.banks[bank][idx] = columnLine{valid: true, dirty: write, block: block}
	s.stats.Record(false, write)
	return res
}

// Contains implements cache.Cache.
func (s *Skewed) Contains(a addr.Addr) bool {
	block := s.geom.Block(a)
	for b := 0; b < 2; b++ {
		l := &s.banks[b][s.bankIndex(b, block)]
		if l.valid && l.block == block {
			return true
		}
	}
	return false
}

// Stats implements cache.Cache.
func (s *Skewed) Stats() *cache.Stats { return s.stats }

// Geometry implements cache.Cache.
func (s *Skewed) Geometry() cache.Geometry { return s.geom }

// Name implements cache.Cache.
func (s *Skewed) Name() string { return fmt.Sprintf("%dkB-skewed2", s.geom.SizeBytes/1024) }

// Reset implements cache.Cache.
func (s *Skewed) Reset() {
	for b := range s.banks {
		for i := range s.banks[b] {
			s.banks[b][i] = columnLine{}
		}
	}
	s.stats.Reset()
}
