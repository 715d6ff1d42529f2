// Package stackdist provides the one-pass LRU machinery shared by the
// fast cache models and the experiment scheduler: an O(1) hash-indexed
// LRU structure (Index) and a Mattson stack-distance profiler (Profiler,
// Profile) that derives hit/miss counts for every LRU (sets, ways)
// geometry up to MaxWays ways from a single pass over an address
// stream. The same pass
// answers a direct-mapped cache behind a victim buffer of every size
// (Geom.Victim): the buffer is an LRU stack over the array's evictions.
//
// The two halves serve the same property from opposite directions. LRU's
// inclusion property says the content of a W-way LRU set is always a
// prefix of the set's recency stack, so (a) a fully-associative lookup
// needs only a hash map plus a recency list — no tag scan — and (b) an
// access hits in a W-way set if and only if fewer than W distinct lines
// of that set were touched since its last use (its stack distance).
package stackdist

import "bcache/internal/addr"

// Node is one resident line in an Index: a hash-table entry threaded on
// the recency list. Key identifies the line (tag or line address — the
// Index does not interpret it) and Val carries the caller's payload (a
// way number, a dirty flag).
type Node struct {
	Key addr.Addr
	Val uint64

	prev, next *Node // recency neighbours; head = MRU, tail = LRU
}

// Index is an O(1) fully-associative LRU directory: a map from key to an
// intrusive doubly-linked-list node whose list position is the recency
// order. Lookup, touch, insert, and LRU-victim selection are all O(1),
// replacing the O(ways) tag scan and victim search of a linear
// fully-associative model.
type Index struct {
	m          map[addr.Addr]*Node
	head, tail *Node
	free       *Node // pool of removed nodes, chained on next
}

// NewIndex returns an empty index sized for about capHint residents.
func NewIndex(capHint int) *Index {
	if capHint < 0 {
		capHint = 0
	}
	return &Index{m: make(map[addr.Addr]*Node, capHint)}
}

// Len returns the number of resident keys.
func (ix *Index) Len() int { return len(ix.m) }

// Get returns the node holding key without touching recency, or nil.
func (ix *Index) Get(key addr.Addr) *Node { return ix.m[key] }

// Touch moves n to the MRU position.
func (ix *Index) Touch(n *Node) {
	if ix.head == n {
		return
	}
	ix.unlink(n)
	ix.pushFront(n)
}

// Insert adds key as the MRU resident and returns its node. The key must
// not already be present.
func (ix *Index) Insert(key addr.Addr, val uint64) *Node {
	n := ix.free
	if n != nil {
		ix.free = n.next
		*n = Node{Key: key, Val: val}
	} else {
		n = &Node{Key: key, Val: val}
	}
	ix.m[key] = n
	ix.pushFront(n)
	return n
}

// Remove deletes n from the index and recycles its node. The caller must
// not use n afterwards.
func (ix *Index) Remove(n *Node) {
	ix.unlink(n)
	delete(ix.m, n.Key)
	*n = Node{next: ix.free}
	ix.free = n
}

// LRU returns the least-recently-used node, or nil when empty.
func (ix *Index) LRU() *Node { return ix.tail }

// MRU returns the most-recently-used node, or nil when empty.
func (ix *Index) MRU() *Node { return ix.head }

// Reset drops every resident.
func (ix *Index) Reset() {
	clear(ix.m)
	ix.head, ix.tail, ix.free = nil, nil, nil
}

func (ix *Index) pushFront(n *Node) {
	n.prev = nil
	n.next = ix.head
	if ix.head != nil {
		ix.head.prev = n
	}
	ix.head = n
	if ix.tail == nil {
		ix.tail = n
	}
}

func (ix *Index) unlink(n *Node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		ix.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		ix.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
