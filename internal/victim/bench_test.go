package victim

import (
	"encoding/binary"
	"fmt"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
)

// linearBuffer is the pre-index victim buffer verbatim: a stamp-scanned
// entry array with O(entries) probe and eviction. It is kept here as the
// before/after benchmark baseline and the differential oracle for the
// hash-indexed buffer.
type linearBuffer struct {
	buf   []linearEntry
	clock uint64
}

type linearEntry struct {
	valid bool
	dirty bool
	line  addr.Addr
	stamp uint64
}

func (b *linearBuffer) find(line addr.Addr) int {
	for i := range b.buf {
		if b.buf[i].valid && b.buf[i].line == line {
			return i
		}
	}
	return -1
}

func (b *linearBuffer) remove(i int) { b.buf[i] = linearEntry{} }

func (b *linearBuffer) insert(line addr.Addr, dirty bool) (linearEntry, bool) {
	slot := 0
	for i := range b.buf {
		if !b.buf[i].valid {
			slot = i
			break
		}
		if b.buf[i].stamp < b.buf[slot].stamp {
			slot = i
		}
	}
	old := b.buf[slot]
	b.clock++
	b.buf[slot] = linearEntry{valid: true, dirty: dirty, line: line, stamp: b.clock}
	return old, old.valid
}

// linearVictim is the reference victim cache: a direct-mapped array
// behind a linearBuffer, accessed as the array was before it was looked
// up once per access (probe with Contains, and on a buffer hit refill
// with the buffered dirty bit folded into the write).
type linearVictim struct {
	main       *cache.SetAssoc
	buf        *linearBuffer
	stats      cache.Stats
	bufferHits uint64
}

func (v *linearVictim) access(a addr.Addr, write bool) cache.Result {
	if v.main.Contains(a) {
		v.stats.Record(true, write)
		return v.main.Access(a, write)
	}
	line := a &^ addr.Addr(v.main.Geometry().LineBytes-1)
	if j := v.buf.find(line); j >= 0 {
		v.bufferHits++
		dirty := v.buf.buf[j].dirty
		v.buf.remove(j)
		r := v.main.Access(a, write || dirty)
		if r.Evicted {
			v.buf.insert(r.EvictedAddr, r.EvictedDirty)
		}
		v.stats.Record(true, write)
		return cache.Result{Hit: true, Frame: r.Frame, ExtraLatency: 1}
	}
	r := v.main.Access(a, write)
	res := cache.Result{Frame: r.Frame}
	if r.Evicted {
		if old, evicted := v.buf.insert(r.EvictedAddr, r.EvictedDirty); evicted {
			res.Evicted, res.EvictedAddr, res.EvictedDirty = true, old.line, old.dirty
			v.stats.RecordEviction(old.dirty)
		}
	}
	v.stats.Record(false, write)
	return res
}

// checkMatchesLinear runs stream through c, a fresh Cache, and through
// a linearVictim of c's array shape over buf, an empty buffer of c's
// size, and fails t unless every Result, the Stats, the buffer hits and
// the resident lines agree.
func checkMatchesLinear(t *testing.T, c *Cache, buf *linearBuffer, stream []cache.MemAccess) {
	t.Helper()
	g := c.Geometry()
	main, err := cache.NewDirectMapped(g.SizeBytes, g.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	ref := &linearVictim{main: main, buf: buf}
	line := addr.Addr(g.LineBytes)
	for i, m := range stream {
		if got, want := c.Access(m.Addr(), m.Write()), ref.access(m.Addr(), m.Write()); got != want {
			t.Fatalf("access %d (%#x, write=%v): %+v, linear reference %+v", i, m.Addr(), m.Write(), got, want)
		}
	}
	if *c.Stats() != ref.stats || c.BufferHits != ref.bufferHits {
		t.Fatalf("stats %+v, %d buffer hits; linear reference %+v, %d", *c.Stats(), c.BufferHits, ref.stats, ref.bufferHits)
	}
	for _, m := range stream {
		if a := m.Addr(); c.Contains(a) != (ref.main.Contains(a) || ref.buf.find(a&^(line-1)) >= 0) {
			t.Fatalf("Contains(%#x) differs from the linear reference", a)
		}
	}
}

// TestBufferMatchesLinear drives the hash-indexed buffer and the linear
// reference through an identical probe/hit/insert sequence and checks
// every outcome: probe result, dirty payload, and eviction choice. Its
// -cache subtests then run a whole Cache against linearVictim.
func TestBufferMatchesLinear(t *testing.T) {
	for _, entries := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("%dentries", entries), func(t *testing.T) {
			c, err := New(16*1024, 32, entries)
			if err != nil {
				t.Fatal(err)
			}
			ref := &linearBuffer{buf: make([]linearEntry, entries)}
			src := rng.New(uint64(entries))
			for i := 0; i < 100000; i++ {
				line := addr.Addr(src.Intn(256)) << 5
				dirty := src.Intn(3) == 0
				n := c.buf.Get(line)
				j := ref.find(line)
				if (n != nil) != (j >= 0) {
					t.Fatalf("step %d: probe(%#x) hash=%v linear=%v", i, line, n != nil, j >= 0)
				}
				if n != nil {
					if (n.Val != 0) != ref.buf[j].dirty {
						t.Fatalf("step %d: dirty payload diverged", i)
					}
					c.buf.Remove(n)
					ref.remove(j)
					continue
				}
				_, _, evicted := c.insert(line, dirty)
				old, refEvicted := ref.insert(line, dirty)
				if evicted != refEvicted {
					t.Fatalf("step %d: evicted hash=%v linear=%v", i, evicted, refEvicted)
				}
				_ = old
			}
			// Drain by eviction order: both must agree on the full order.
			for c.buf.Len() > 0 {
				n := c.buf.LRU()
				old, refEvicted := ref.insert(addr.Addr(1)<<30+addr.Addr(c.buf.Len())<<5, false)
				if !refEvicted || old.line != n.Key {
					t.Fatalf("drain: eviction order diverged (hash %#x, linear %#x)", n.Key, old.line)
				}
				c.buf.Remove(n)
			}
		})
		t.Run(fmt.Sprintf("%dentries-cache", entries), func(t *testing.T) {
			// A 2 kB (64-line) array, lines over 8× its size, a third of the accesses writes:
			// buffer hits on dirty copies, clean and dirty buffer
			// evictions all occur.
			src := rng.New(uint64(entries) + 100)
			stream := make([]cache.MemAccess, 50000)
			for i := range stream {
				stream[i] = cache.NewMemAccess(addr.Addr(src.Intn(16384)), src.Intn(3) == 0)
			}
			checkMatchesLinear(t, mustVictim(t, 2048, 32, entries), &linearBuffer{buf: make([]linearEntry, entries)}, stream)
		})
	}
}

// FuzzBufferMatchesLinear: for any stream and any buffer of 1 to 64
// lines in front of a 2 kB (64-line) array, the Cache agrees with
// linearVictim as in checkMatchesLinear.
// The first byte picks the buffer size. Each following 2-byte group is
// one access: its low 14 bits address 16 kB (8× the array), bit 14 is
// the direction.
func FuzzBufferMatchesLinear(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x40, 0x00, 0x08, 0x00, 0x00})
	f.Add([]byte{3, 0x40, 0x40, 0x40, 0x08, 0x40, 0x10, 0x40, 0x18, 0x40, 0x00, 0x40, 0x20})
	f.Add([]byte("a victim buffer keeps what the array drops"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		var stream []cache.MemAccess
		for rest := data[1:]; len(rest) >= 2; rest = rest[2:] {
			w := binary.LittleEndian.Uint16(rest)
			stream = append(stream, cache.NewMemAccess(addr.Addr(w&(1<<14-1)), w>>14&1 != 0))
		}
		entries := int(data[0])%64 + 1
		checkMatchesLinear(t, mustVictim(t, 2048, 32, entries), &linearBuffer{buf: make([]linearEntry, entries)}, stream)
	})
}

// BenchmarkBufferLookup is the before/after measurement for the O(1)
// port: one probe-miss-plus-insert cycle against a full buffer, the
// steady state of a conflict-heavy run.
func BenchmarkBufferLookup(b *testing.B) {
	src := rng.New(5)
	lines := make([]addr.Addr, 8192)
	for i := range lines {
		lines[i] = addr.Addr(src.Intn(1<<16)) << 5
	}
	for _, entries := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("hash-%d", entries), func(b *testing.B) {
			c, err := New(16*1024, 32, entries)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				line := lines[i&8191]
				if n := c.buf.Get(line); n != nil {
					c.buf.Remove(n)
				}
				c.insert(line, false)
			}
		})
		b.Run(fmt.Sprintf("linear-%d", entries), func(b *testing.B) {
			ref := &linearBuffer{buf: make([]linearEntry, entries)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				line := lines[i&8191]
				if j := ref.find(line); j >= 0 {
					ref.remove(j)
				}
				ref.insert(line, false)
			}
		})
	}
}
