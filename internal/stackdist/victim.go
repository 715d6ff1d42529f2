package stackdist

import (
	"fmt"

	"bcache/internal/addr"
)

// Victim-buffer profiling.
//
// A victim buffer (Jouppi) behind a direct-mapped array receives every
// line the array displaces, evicts its oldest insertion when full, and
// gives a line back to the array on a buffer hit. Two facts make every
// buffer depth V answerable from one pass:
//
//   - The array does not depend on V. A buffer hit and a miss both
//     install the line in its frame and displace the same occupant, so
//     the array's contents, its misses and the stream of displaced lines
//     are those of a plain direct-mapped cache.
//   - The buffer is a stack algorithm (Mattson et al. 1970). Order the
//     displaced lines by insertion, newest first, removing a line when
//     it re-enters the array. A buffer hit always displaces a line (the
//     frame has been valid since it evicted the hit line; nothing but
//     fault injection, which no profile models, invalidates a frame),
//     so removal and insertion come in pairs and a V-entry buffer holds
//     exactly the top V of that stack: a line at depth d hits every
//     buffer with V > d.
//
// A victimLevel therefore keeps that stack, truncated at the deepest
// buffer asked for, and histograms the depth of each array miss found
// in it. The array itself is the Profiler at the same set count: a
// direct-mapped frame holds its set's most recent block, which is the
// top of that set's LRU stack (Profiler.recent), read before the
// profiler records the access.

// victimLevel answers every victim-buffer depth up to cap(stk) behind
// the direct-mapped array of prof's set count.
type victimLevel struct {
	prof *Profiler
	// stk holds the displaced lines not back in the array, newest first;
	// its capacity is the deepest buffer answered.
	stk []addr.Addr
	// hist[d] counts array misses on a line at stack depth d; misses
	// counts every array miss.
	hist   []uint64
	misses uint64
}

// newVictimLevel builds a victim level over prof's sets.
func newVictimLevel(prof *Profiler, maxEntries int) *victimLevel {
	return &victimLevel{
		prof: prof,
		stk:  make([]addr.Addr, 0, maxEntries),
		hist: make([]uint64, maxEntries),
	}
}

// access records one access to block with the array and the buffer
// stack. It must run before prof records the access.
func (v *victimLevel) access(block addr.Addr) {
	old, displaced := v.prof.recent(block)
	if displaced && old == block {
		return
	}
	v.misses++
	if !displaced {
		// A cold frame has displaced nothing, so no line of its set is
		// in the stack and there is nothing to push.
		return
	}
	// Push the displaced line: every line above block (every line, on a
	// miss) moves down one place, and a miss drops the deepest line once
	// the stack is full.
	prev := old
	for i, b := range v.stk {
		v.stk[i] = prev
		if b == block {
			v.hist[i]++
			return
		}
		prev = b
	}
	if len(v.stk) < cap(v.stk) {
		v.stk = append(v.stk, prev)
	}
}

// result returns the misses and the buffer hits of the array behind an
// entries-line buffer: array misses less buffer hits, and the hits on
// lines above depth entries.
func (v *victimLevel) result(entries int) (misses, bufferHits uint64, err error) {
	if entries <= 0 || entries > cap(v.stk) {
		return 0, 0, fmt.Errorf("stackdist: victim buffer of %d entries outside tracked range 1..%d", entries, cap(v.stk))
	}
	for _, n := range v.hist[:entries] {
		bufferHits += n
	}
	return v.misses - bufferHits, bufferHits, nil
}
