package cache

import (
	"fmt"

	"bcache/internal/addr"
)

// MemAccess is one element of a replayable data stream: a byte address
// plus its read/write direction, packed into one word (addr<<1 | write)
// so a stream of them costs 8 bytes per access instead of 16.
// Addresses must fit in 63 bits; NewMemAccess rejects the top bit.
type MemAccess uint64

// NewMemAccess packs one data access.
func NewMemAccess(a addr.Addr, write bool) MemAccess {
	if a>>63 != 0 {
		panic("cache: MemAccess address exceeds 63 bits")
	}
	m := MemAccess(a) << 1
	if write {
		m |= 1
	}
	return m
}

// Addr returns the byte address.
func (m MemAccess) Addr() addr.Addr { return addr.Addr(m >> 1) }

// Write reports the access direction.
func (m MemAccess) Write() bool { return m&1 != 0 }

// An Event is one access of a replayed stream that was not a plain hit:
// a miss, a hit that cost extra cycles, or an access that displaced a
// dirty line. A hit with none of these is not an event, so a replay's
// events are as sparse as its misses. Fields are sized so an event
// takes 16 bytes.
type Event struct {
	// Victim is the line-aligned address of the displaced line, when
	// Dirty.
	Victim addr.Addr
	// Index is the access's position in the replayed stream.
	Index uint32
	// Miss reports a miss; Dirty that a dirty line was displaced.
	Miss, Dirty bool
	// Extra is the access's Result.ExtraLatency.
	Extra uint8
	// Below is left 0 by a replay. The level below the cache records
	// in it how it served the access (package hier).
	Below uint8
}

// Replayer is a cache with a batch entry point: Replay runs stream in
// order and leaves exactly the state and counters that one Access per
// element leaves. With a non-nil ev it also appends to *ev the Event of
// every access that was not a plain hit, in stream order; with a nil ev
// it records nothing. Access stays the per-access path, and the oracle
// Replay is tested against.
type Replayer interface {
	Replay(stream []MemAccess, ev *[]Event)
}

// Replay runs stream through c: one Replay call when c is a Replayer,
// ReplayEach otherwise. ev is as for Replayer; indices count from the
// start of stream.
func Replay(c Cache, stream []MemAccess, ev *[]Event) {
	if r, ok := c.(Replayer); ok {
		r.Replay(stream, ev)
		return
	}
	ReplayEach(c, stream, ev)
}

// ReplayEach runs stream through c one Access per element, each event
// derived from its Result: the Replay of a cache without a batch path,
// and a Replayer's fallback for the caches its batch path leaves out.
func ReplayEach(c Cache, stream []MemAccess, ev *[]Event) {
	for i, m := range stream {
		if r := c.Access(m.Addr(), m.Write()); ev != nil {
			AppendEvent(ev, i, r)
		}
	}
}

// AppendEvent appends to *ev the Event of the access at index i of a
// stream, whose Access returned r, if it is one: a miss, a hit with
// ExtraLatency, or a dirty victim. It is the step of a Replay that
// loops over Access, and inlines to one test on a plain hit, which most
// accesses are.
func AppendEvent(ev *[]Event, i int, r Result) {
	if !r.Hit || r.ExtraLatency != 0 || r.Evicted && r.EvictedDirty {
		appendEvent(ev, i, &r)
	}
}

// appendEvent appends the Event of an access that was not a plain hit.
func appendEvent(ev *[]Event, i int, r *Result) {
	if r.ExtraLatency < 0 || r.ExtraLatency > 0xFF {
		panic(fmt.Sprintf("cache: extra latency %d does not fit an Event", r.ExtraLatency))
	}
	e := Event{Index: uint32(i), Miss: !r.Hit, Dirty: r.Evicted && r.EvictedDirty, Extra: uint8(r.ExtraLatency)}
	if e.Dirty {
		e.Victim = r.EvictedAddr
	}
	*ev = append(*ev, e)
}
