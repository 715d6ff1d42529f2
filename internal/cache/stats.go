package cache

import "fmt"

// Stats holds the scalar access counters of one cache. Per-frame
// counts (Table 7's set balance) are not kept here: a reader that needs
// them counts each access's Result.Frame itself (stats.Frames).
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Reads      uint64
	Writes     uint64
	Evictions  uint64
	Writebacks uint64
}

// NewStats returns zeroed counters.
func NewStats() *Stats { return &Stats{} }

// Record books one access outcome.
func (s *Stats) Record(hit, write bool) {
	s.Accesses++
	if write {
		s.Writes++
	} else {
		s.Reads++
	}
	if hit {
		s.Hits++
	} else {
		s.Misses++
	}
}

// RecordEviction books the displacement of a valid line.
func (s *Stats) RecordEviction(dirty bool) {
	s.Evictions++
	if dirty {
		s.Writebacks++
	}
}

// MissRate returns Misses/Accesses, or 0 if the cache was never accessed.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate returns Hits/Accesses, or 0 if the cache was never accessed.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Reset zeroes all counters in place.
func (s *Stats) Reset() { *s = Stats{} }

func (s *Stats) String() string {
	return fmt.Sprintf("accesses=%d hits=%d misses=%d missRate=%.4f%%",
		s.Accesses, s.Hits, s.Misses, 100*s.MissRate())
}
