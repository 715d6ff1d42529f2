package victim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
)

// replayShape is one victim cache Replay is checked on.
type replayShape struct {
	size, entries int
	probed        bool
}

func (s replayShape) String() string {
	return fmt.Sprintf("%dk-victim%d-probed%v", s.size>>10, s.entries, s.probed)
}

func (s replayShape) build(t testing.TB) *Cache {
	t.Helper()
	c := mustVictim(t, s.size, 32, s.entries)
	if s.probed {
		c.SetProbe(&countProbe{})
	}
	return c
}

// replayShapes: a 1 kB cache, whose sets thrash through a buffer of 1,
// 4 and 16 lines, and the 16 kB cache with the paper's 16-entry buffer
// (§6.6), each unprobed (the kernel) and probed (the Access loop).
func replayShapes() []replayShape {
	var out []replayShape
	for _, probed := range []bool{false, true} {
		for _, e := range []int{1, 4, 16} {
			out = append(out, replayShape{size: 1 << 10, entries: e, probed: probed})
		}
		out = append(out, replayShape{size: 16 << 10, entries: 16, probed: probed})
	}
	return out
}

// countProbe counts probe events, so a probed replay is compared event
// for event.
type countProbe struct{ accesses, hits, writes, evicts, dirty int }

func (p *countProbe) ObserveAccess(_ int, hit, write bool) {
	p.accesses++
	if hit {
		p.hits++
	}
	if write {
		p.writes++
	}
}
func (p *countProbe) ObserveEvict(dirty bool) {
	p.evicts++
	if dirty {
		p.dirty++
	}
}
func (p *countProbe) ObservePD(bool)                                   {}
func (p *countProbe) ObserveReprogram()                                {}
func (p *countProbe) ObserveWriteback()                                {}
func (p *countProbe) ObserveFault(cache.FaultDomain, cache.FaultClass) {}
func (p *countProbe) ObserveScrub(int, bool)                           {}

// checkReplay runs chunks through a by one access per element and
// through b by replay with an event buffer, and fails t unless after
// every chunk the caches are reflect.DeepEqual — main array, buffer
// index, both Stats, BufferHits, probe — and replay's events are the
// ones the access Results give.
func checkReplay(t *testing.T, a, b *Cache, chunks [][]cache.MemAccess,
	access func(*Cache, addr.Addr, bool) cache.Result, replay func(*Cache, []cache.MemAccess, *[]cache.Event)) {
	t.Helper()
	done := 0
	var got []cache.Event
	for _, ch := range chunks {
		var want []cache.Event
		for i, m := range ch {
			cache.AppendEvent(&want, i, access(a, m.Addr(), m.Write()))
		}
		got = got[:0]
		replay(b, ch, &got)
		done += len(ch)
		if !slices.Equal(want, got) {
			t.Fatalf("after access %d: Replay events %v, Access results give %v", done, got, want)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("after access %d: Replay state differs from Access (stats %v vs %v, buffer hits %d vs %d)",
				done, b.Stats(), a.Stats(), b.BufferHits, a.BufferHits)
		}
	}
}

// conflictStream returns n accesses, a third of them writes. Half fall
// on eight tags of eight sets, so lines thrash between the array and
// the buffer; the rest spread over a space four times the cache.
func conflictStream(seed uint64, size, n int) []cache.MemAccess {
	src := rng.New(seed)
	out := make([]cache.MemAccess, n)
	for i := range out {
		a := addr.Addr(src.Intn(4 * size))
		if src.Intn(2) == 0 {
			a = addr.Addr(src.Intn(8)*size + src.Intn(8)*32 + src.Intn(32))
		}
		out[i] = cache.NewMemAccess(a, src.Intn(3) == 0)
	}
	return out
}

// TestVictimReplayMatchesAccess: Replay with an event buffer leaves
// exactly the cache one Access per element leaves and reports exactly
// the Events the Access Results give, on every shape of replayShapes,
// in chunks of 0, 1, under 16 and 4096 accesses. Replay with a nil
// buffer leaves the same cache.
func TestVictimReplayMatchesAccess(t *testing.T) {
	const n = 30_000
	for si, sh := range replayShapes() {
		t.Run(sh.String(), func(t *testing.T) {
			t.Parallel()
			src := rng.New(uint64(si))
			var chunks [][]cache.MemAccess
			for s := conflictStream(uint64(si), sh.size, n); len(s) > 0; {
				k := min(len(s), []int{0, 1, src.Intn(16), 4096}[src.Intn(4)])
				chunks = append(chunks, s[:k])
				s = s[k:]
			}
			a, b := sh.build(t), sh.build(t)
			checkReplay(t, a, b, chunks, (*Cache).Access, (*Cache).Replay)
			if a.BufferHits == 0 || a.Stats().Writebacks == 0 {
				t.Fatalf("stream never hit the buffer or wrote a buffered line back (%d buffer hits, %v)", a.BufferHits, a.Stats())
			}
			c := sh.build(t)
			for _, ch := range chunks {
				c.Replay(ch, nil)
			}
			if !reflect.DeepEqual(a, c) {
				t.Fatal("Replay without events leaves another cache than Access")
			}
		})
	}
}

// FuzzVictimReplay: for any stream and chunk split, on any shape of
// replayShapes, Replay with events and Access agree as in
// TestVictimReplayMatchesAccess. The first byte picks the shape. Each
// following 4-byte group is one access: its low 16 bits address a
// 64 KiB space, bit 16 is the direction, and a top byte of 0xF0 or
// more ends the chunk before the access.
func FuzzVictimReplay(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0x20, 0x00, 0x01, 0x00, 0x20, 0x04, 0x00, 0xF0, 0x20, 0x00, 0x00, 0xF8, 0x20, 0x08, 0x00, 0x00})
	f.Add([]byte{6, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0xF0, 0x00, 0x00, 0x00, 0xF0})
	f.Add([]byte("swap the victim back, write the dirty one out"))
	shapes := replayShapes()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		sh := shapes[int(data[0])%len(shapes)]
		var chunks [][]cache.MemAccess
		var cur []cache.MemAccess
		for rest := data[1:]; len(rest) >= 4; rest = rest[4:] {
			if rest[3] >= 0xF0 {
				chunks = append(chunks, cur)
				cur = nil
			}
			w := binary.LittleEndian.Uint32(rest)
			cur = append(cur, cache.NewMemAccess(addr.Addr(w&(1<<16-1)), w>>16&1 != 0))
		}
		checkReplay(t, sh.build(t), sh.build(t), append(chunks, cur), (*Cache).Access, (*Cache).Replay)
	})
}
