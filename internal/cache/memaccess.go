package cache

import "bcache/internal/addr"

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

// Replayer is a cache with a batch entry point: Replay runs stream in
// order and leaves exactly the state and counters that one Access per
// element leaves. Access stays the per-access path, and the oracle
// Replay is tested against.
type Replayer interface {
	Replay(stream []MemAccess)
}

// Replay runs stream through c: one Replay call when c is a Replayer,
// one Access per element otherwise.
func Replay(c Cache, stream []MemAccess) {
	if r, ok := c.(Replayer); ok {
		r.Replay(stream)
		return
	}
	for _, m := range stream {
		c.Access(m.Addr(), m.Write())
	}
}
