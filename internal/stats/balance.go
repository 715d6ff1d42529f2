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

// Frames counts one cache run's accesses per physical frame, split
// into hits and misses: the per-set counters the classification reads.
// The caches themselves keep only scalar totals; a reader that wants
// per-frame counts feeds each access's cache.Result to Count.
type Frames struct {
	Hits   []uint64
	Misses []uint64
}

// NewFrames returns zeroed counters for a cache of n line frames.
func NewFrames(n int) *Frames {
	return &Frames{Hits: make([]uint64, n), Misses: make([]uint64, n)}
}

// Count books one access against the frame that served or received it.
func (f *Frames) Count(r cache.Result) {
	if r.Hit {
		f.Hits[r.Frame]++
	} else {
		f.Misses[r.Frame]++
	}
}

// Analyze classifies the per-frame counters of f.
func Analyze(f *Frames) (Balance, error) {
	n := len(f.Hits)
	if n == 0 {
		return Balance{}, fmt.Errorf("stats: cache has no frames")
	}
	var hits, misses uint64
	for i := range f.Hits {
		hits += f.Hits[i]
		misses += f.Misses[i]
	}
	accesses := hits + misses
	if accesses == 0 {
		return Balance{}, fmt.Errorf("stats: cache was never accessed")
	}
	avgHits := float64(hits) / float64(n)
	avgMisses := float64(misses) / float64(n)
	avgAccesses := float64(accesses) / float64(n)

	var b Balance
	var fhSets, fmSets, laSets int
	var fhHits, fmMisses, laAccesses uint64
	for i := 0; i < n; i++ {
		if hits > 0 && float64(f.Hits[i]) > 2*avgHits {
			fhSets++
			fhHits += f.Hits[i]
		}
		if misses > 0 && float64(f.Misses[i]) > 2*avgMisses {
			fmSets++
			fmMisses += f.Misses[i]
		}
		if fa := f.Hits[i] + f.Misses[i]; float64(fa) < avgAccesses/2 {
			laSets++
			laAccesses += fa
		}
	}
	b.FreqHitSets = float64(fhSets) / float64(n)
	b.FreqMissSets = float64(fmSets) / float64(n)
	b.LessAccessedSets = float64(laSets) / float64(n)
	if hits > 0 {
		b.HitsInFreqSets = float64(fhHits) / float64(hits)
	}
	if misses > 0 {
		b.MissesInFreqSets = float64(fmMisses) / float64(misses)
	}
	b.AccessesInLessSets = float64(laAccesses) / float64(accesses)
	return b, nil
}
