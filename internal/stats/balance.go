// Package stats computes the set-balance classification of §6.4
// (Table 7): which cache sets are frequently hit, frequently missed, or
// barely accessed, and what share of the traffic they carry.
//
// The paper's definitions: a set is a frequent-hit (resp. frequent-miss)
// set when its hits (misses) are more than 2× the per-set average; a set
// is less-accessed when its total accesses are below half the per-set
// average. The B-Cache's goal is visible directly in these numbers:
// hits spread over more sets, frequent-miss sets shrink, and fewer sets
// sit idle.
package stats

import (
	"fmt"

	"bcache/internal/cache"
)

// Balance summarizes the set-usage distribution of one cache run.
// All fields are fractions in [0, 1].
type Balance struct {
	// FreqHitSets is the fraction of sets whose hits exceed 2× average.
	FreqHitSets float64 `json:"freqHitSets"`
	// HitsInFreqSets is the fraction of all hits occurring in those sets.
	HitsInFreqSets float64 `json:"hitsInFreqSets"`
	// FreqMissSets is the fraction of sets whose misses exceed 2× average.
	FreqMissSets float64 `json:"freqMissSets"`
	// MissesInFreqSets is the fraction of all misses occurring there.
	MissesInFreqSets float64 `json:"missesInFreqSets"`
	// LessAccessedSets is the fraction of sets accessed less than half
	// the average.
	LessAccessedSets float64 `json:"lessAccessedSets"`
	// AccessesInLessSets is the fraction of all accesses they carry.
	AccessesInLessSets float64 `json:"accessesInLessSets"`
}

// Analyze classifies the per-frame counters of s.
func Analyze(s *cache.Stats) (Balance, error) {
	n := s.Frames()
	if n == 0 {
		return Balance{}, fmt.Errorf("stats: cache has no per-frame counters")
	}
	if s.Accesses == 0 {
		return Balance{}, fmt.Errorf("stats: cache was never accessed")
	}
	avgHits := float64(s.Hits) / float64(n)
	avgMisses := float64(s.Misses) / float64(n)
	avgAccesses := float64(s.Accesses) / float64(n)

	var b Balance
	var fhSets, fmSets, laSets int
	var fhHits, fmMisses, laAccesses uint64
	for i := 0; i < n; i++ {
		if s.Hits > 0 && float64(s.FrameHits[i]) > 2*avgHits {
			fhSets++
			fhHits += s.FrameHits[i]
		}
		if s.Misses > 0 && float64(s.FrameMisses[i]) > 2*avgMisses {
			fmSets++
			fmMisses += s.FrameMisses[i]
		}
		if fa := s.FrameAccess(i); float64(fa) < avgAccesses/2 {
			laSets++
			laAccesses += fa
		}
	}
	b.FreqHitSets = float64(fhSets) / float64(n)
	b.FreqMissSets = float64(fmSets) / float64(n)
	b.LessAccessedSets = float64(laSets) / float64(n)
	if s.Hits > 0 {
		b.HitsInFreqSets = float64(fhHits) / float64(s.Hits)
	}
	if s.Misses > 0 {
		b.MissesInFreqSets = float64(fmMisses) / float64(s.Misses)
	}
	b.AccessesInLessSets = float64(laAccesses) / float64(s.Accesses)
	return b, nil
}
