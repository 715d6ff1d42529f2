package cache

import "fmt"

// Stats holds the access counters of one cache.
// Per-frame counters feed the set-balance analysis of Table 7.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Reads      uint64
	Writes     uint64
	Evictions  uint64
	Writebacks uint64

	// FrameHits/FrameMisses are indexed by physical frame. A frame's
	// access total is their sum — see FrameAccess; keeping a third
	// array in sync would cost an extra counter write per access.
	FrameHits   []uint64
	FrameMisses []uint64
}

// NewStats returns zeroed counters for a cache with frames line frames.
func NewStats(frames int) *Stats {
	return &Stats{
		FrameHits:   make([]uint64, frames),
		FrameMisses: make([]uint64, frames),
	}
}

// Record books one access outcome against frame.
func (s *Stats) Record(frame int, hit, write bool) {
	s.Accesses++
	if write {
		s.Writes++
	} else {
		s.Reads++
	}
	if hit {
		s.Hits++
		s.FrameHits[frame]++
	} else {
		s.Misses++
		s.FrameMisses[frame]++
	}
}

// Frames returns the number of per-frame counters.
func (s *Stats) Frames() int { return len(s.FrameHits) }

// FrameAccess returns frame i's total accesses, derived from the hit
// and miss counters.
func (s *Stats) FrameAccess(i int) uint64 { return s.FrameHits[i] + s.FrameMisses[i] }

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
func (s *Stats) Reset() {
	frames := len(s.FrameHits)
	*s = Stats{
		FrameHits:   s.FrameHits[:0],
		FrameMisses: s.FrameMisses[:0],
	}
	s.FrameHits = append(s.FrameHits, make([]uint64, frames)...)
	s.FrameMisses = append(s.FrameMisses, make([]uint64, frames)...)
}

func (s *Stats) String() string {
	return fmt.Sprintf("accesses=%d hits=%d misses=%d missRate=%.4f%%",
		s.Accesses, s.Hits, s.Misses, 100*s.MissRate())
}
