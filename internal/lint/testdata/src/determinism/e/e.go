// Package e pins the per-set stream and trace-spill idioms: every set
// (or shard of sets) draws from its own deterministically split
// seeded stream (never the global math/rand stream, whose draw order
// would depend on worker interleaving), and the spill index — a map
// keyed by trace key — always emits its listing through a sorted slice,
// never in map iteration order.
package e

import (
	"fmt"
	"math/rand" // want `determinism: import of "math/rand"`
	"sort"
	"strings"
)

// splitSource models the sanctioned per-set randomness: a seeded
// SplitMix-style stream forked per shard from the parent seed, so shard
// i's draws are a pure function of (seed, i) no matter which worker
// runs it or in what order shards finish.
type splitSource struct{ state uint64 }

func newSplit(seed uint64) *splitSource { return &splitSource{state: seed} }

// split forks the stream for one set shard, so a set's draws never
// depend on the order sets are replayed in.
func (s *splitSource) split(shard uint64) *splitSource {
	return &splitSource{state: s.state ^ (shard+1)*0x9e3779b97f4a7c15}
}

func (s *splitSource) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	return z ^ z>>27
}

// shardedVictims is the canonical pattern: each shard's victim picks
// come from its own split stream, independent of scheduling.
func shardedVictims(seed uint64, shards, picks int) [][]uint64 {
	parent := newSplit(seed)
	out := make([][]uint64, shards)
	for i := range out {
		src := parent.split(uint64(i))
		for j := 0; j < picks; j++ {
			out[i] = append(out[i], src.next())
		}
	}
	return out
}

// globalVictims draws shard victims from the global stream (the import
// is the finding): the picks depend on how workers interleave.
func globalVictims(shards int) []int {
	out := make([]int, shards)
	for i := range out {
		out[i] = rand.Int()
	}
	return out
}

// spillSlot models one on-disk entry of a trace-spill index.
type spillSlot struct {
	path string
	size int64
}

// listSpilledSorted is the canonical listing: collect the keys, sort,
// then emit — the order is a function of the content, not the map seed.
func listSpilledSorted(spilled map[string]*spillSlot) []string {
	keys := make([]string, 0, len(spilled))
	for k := range spilled {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// renderSpillTable emits the index rows in map iteration order: two
// runs of the same campaign would render differently.
func renderSpillTable(spilled map[string]*spillSlot) string {
	var b strings.Builder
	for k, s := range spilled { // want `determinism: range over map emits per-iteration output`
		fmt.Fprintf(&b, "%s %d\n", k, s.size)
	}
	return b.String()
}

// sumSpillBytes never emits per-entry output; order-independent
// reduction over a map is fine without annotation.
func sumSpillBytes(spilled map[string]*spillSlot) int64 {
	var total int64
	for _, s := range spilled {
		total += s.size
	}
	return total
}
