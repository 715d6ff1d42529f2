// Package d pins the determinism idioms of a lease table: a table that
// keys leases by ID in a map must emit every sweep — expiries, worker
// reclaims, stats rows — in sorted order, and all lease timing flows
// through explicit `now` parameters fed by the clock seam, never a wall
// read inside the table. (internal/dist keeps one lease per slot in a
// slice, so its sweeps are ordered without a sort.)
package d

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

type lease struct {
	id     int
	worker int
	expiry time.Time
}

type table struct {
	leases map[int]*lease
}

// expiredSorted is the canonical sweep: collect IDs, sort, then emit.
// The deadline arrives as a parameter — the table never reads a clock.
func (t *table) expiredSorted(now time.Time) []int {
	var ids []int
	for id, l := range t.leases {
		if l.expiry.Before(now) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// expiredLeases emits lease structs in map order and never sorts — the
// re-lease schedule would depend on Go's map seed, not the campaign's.
func (t *table) expiredLeases(now time.Time) []*lease {
	var out []*lease
	for _, l := range t.leases { // want `determinism: range over map emits per-iteration output`
		if l.expiry.Before(now) {
			out = append(out, l)
		}
	}
	return out
}

// expiredWall reads the wall clock inside the table instead of taking
// `now` from the caller's clock seam.
func (t *table) expiredWall() []int {
	now := time.Now() // want `determinism: call to time.Now`
	var ids []int
	for id, l := range t.leases {
		if l.expiry.Before(now) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// reclaim renders a worker's lease report row-by-row straight off the
// map — the log line order would differ run to run.
func (t *table) reclaim(worker int) string {
	var b strings.Builder
	for id, l := range t.leases { // want `determinism: range over map emits per-iteration output`
		if l.worker == worker {
			fmt.Fprintf(&b, "lease %d returned\n", id)
		}
	}
	return b.String()
}

// reclaimSorted is the remedy: the sorted ID pass drives the emission.
func (t *table) reclaimSorted(worker int) string {
	var ids []int
	for id, l := range t.leases {
		if l.worker == worker {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "lease %d returned\n", id)
	}
	return b.String()
}

// countLive aggregates commutatively; map order cannot leak.
func (t *table) countLive(now time.Time) int {
	n := 0
	for _, l := range t.leases {
		if !l.expiry.Before(now) {
			n++
		}
	}
	return n
}
