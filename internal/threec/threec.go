// Package threec classifies cache misses with the classic 3C model
// (Hill): compulsory (first touch), capacity (would also miss in a
// fully-associative LRU cache of the same size), and conflict (everything
// else — the misses caused purely by the indexing).
//
// The paper's entire contribution targets the conflict component: the
// B-Cache removes conflict misses while leaving compulsory and capacity
// misses untouched. This package makes that claim directly measurable:
// classify a reference stream once, replay it through each cache under
// test, and tally each cache's misses by their access's class.
package threec

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/stackdist"
)

// Class is a miss category.
type Class uint8

// Miss classes.
const (
	Compulsory Class = iota
	Capacity
	Conflict
)

// Counts accumulates per-class totals.
type Counts struct {
	Hits       uint64 `json:"hits"`
	Compulsory uint64 `json:"compulsory"`
	Capacity   uint64 `json:"capacity"`
	Conflict   uint64 `json:"conflict"`
}

// Misses returns the total miss count.
func (c Counts) Misses() uint64 { return c.Compulsory + c.Capacity + c.Conflict }

// Accesses returns the total access count.
func (c Counts) Accesses() uint64 { return c.Hits + c.Misses() }

// Tally adds one replay of a stream to c: classes holds one class per
// access of the stream (Classify's), and events is the replay's event
// list (cache.Replay's). Each miss event counts under its access's
// class, and every access without one is a hit.
func (c *Counts) Tally(classes []Class, events []cache.Event) {
	var misses uint64
	for _, e := range events {
		if !e.Miss {
			continue
		}
		misses++
		switch classes[e.Index] {
		case Compulsory:
			c.Compulsory++
		case Capacity:
			c.Capacity++
		default:
			c.Conflict++
		}
	}
	c.Hits += uint64(len(classes)) - misses
}

// Classifier is the 3C reference of one stream: a first-touch set and a
// fully-associative LRU cache of a given number of frames. The latter
// is an LRU stack of line numbers (stackdist.Index) holding at most
// that many lines: a line hits in it iff it is resident, so no tags or
// ways are simulated. It holds no cache under test, so one classifier
// serves every cache of a stream's geometry.
type Classifier struct {
	fa         *stackdist.Index
	lines      int  // the reference's capacity, in lines
	blockShift uint // turns an address into its line number
	seen       map[addr.Addr]struct{}
}

// New builds the reference of a cache of frames lines of lineBytes
// bytes.
func New(frames, lineBytes int) (*Classifier, error) {
	if frames <= 0 || lineBytes <= 0 || !addr.IsPow2(uint64(lineBytes)) {
		return nil, fmt.Errorf("threec: %d frames of %d bytes is not a cache", frames, lineBytes)
	}
	return &Classifier{
		fa:         stackdist.NewIndex(frames),
		lines:      frames,
		blockShift: addr.Log2(uint64(lineBytes)),
		seen:       make(map[addr.Addr]struct{}),
	}, nil
}

// Classify runs stream through the reference and appends to dst, per
// access, the class a miss of that access gets: Compulsory on the
// line's first touch, Capacity when the fully-associative reference
// misses too, Conflict otherwise.
func (c *Classifier) Classify(dst []Class, stream []cache.MemAccess) []Class {
	for _, m := range stream {
		block := m.Addr() >> c.blockShift
		_, touched := c.seen[block]
		if !touched {
			c.seen[block] = struct{}{}
		}
		switch faHit := c.reference(block); {
		case !touched:
			dst = append(dst, Compulsory)
		case !faHit:
			dst = append(dst, Capacity)
		default:
			dst = append(dst, Conflict)
		}
	}
	return dst
}

// reference accesses block in the fully-associative LRU reference and
// reports whether it hit: a hit moves the line to the MRU end, a miss
// evicts the LRU line when the reference is full and inserts block.
func (c *Classifier) reference(block addr.Addr) bool {
	if n := c.fa.Get(block); n != nil {
		c.fa.Touch(n)
		return true
	}
	if c.fa.Len() == c.lines {
		c.fa.Remove(c.fa.LRU())
	}
	c.fa.Insert(block, 0)
	return false
}
