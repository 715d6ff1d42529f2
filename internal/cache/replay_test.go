package cache

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/rng"
)

// replayShape is one SetAssoc configuration Replay is checked on.
type replayShape struct {
	size, ways int
	kind       PolicyKind
}

func (s replayShape) String() string {
	return fmt.Sprintf("%dk-%dway-%s", s.size>>10, s.ways, s.kind)
}

func (s replayShape) build(t testing.TB) *SetAssoc {
	t.Helper()
	c, err := NewSetAssoc(s.size, 32, s.ways, s.kind, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// replayShapes: the kernel's direct-mapped, 2-, 4- and 8-way and 64-way
// LRU caches (16 kB and a 1 kB one whose sets fill and evict
// constantly), its 4-way and 32-way (HAC's) FIFO caches, and the Access
// loop's Random and 512-way caches.
func replayShapes() []replayShape {
	var out []replayShape
	for _, size := range []int{16 << 10, 1 << 10} {
		for _, ways := range []int{1, 2, 4, 8} {
			out = append(out, replayShape{size: size, ways: ways, kind: LRU})
		}
	}
	return append(out,
		replayShape{size: 16 << 10, ways: 64, kind: LRU},
		replayShape{size: 16 << 10, ways: 4, kind: FIFO},
		replayShape{size: 16 << 10, ways: 32, kind: FIFO},
		replayShape{size: 16 << 10, ways: 4, kind: Random},
		replayShape{size: 16 << 10, ways: 512, kind: LRU})
}

// logProbe counts probe events by kind.
type logProbe struct{ counts map[string]int }

func (p *logProbe) ObserveAccess(frame int, hit, write bool) {
	p.counts[fmt.Sprintf("access %d %v %v", frame, hit, write)]++
}
func (p *logProbe) ObservePD(bool)                       { p.counts["pd"]++ }
func (p *logProbe) ObserveReprogram()                    { p.counts["reprogram"]++ }
func (p *logProbe) ObserveEvict(dirty bool)              { p.counts[fmt.Sprint("evict ", dirty)]++ }
func (p *logProbe) ObserveWriteback()                    { p.counts["writeback"]++ }
func (p *logProbe) ObserveFault(FaultDomain, FaultClass) { p.counts["fault"]++ }
func (p *logProbe) ObserveScrub(int, bool)               { p.counts["scrub"]++ }

// checkReplay runs chunks through a by one access per element and
// through b by replay with an event buffer, and fails t unless after
// every chunk both caches are reflect.DeepEqual and replay's events are
// the ones each access Result gives.
func checkReplay(t *testing.T, a, b *SetAssoc, chunks [][]MemAccess,
	access func(*SetAssoc, addr.Addr, bool) Result, replay func(*SetAssoc, []MemAccess, *[]Event)) {
	t.Helper()
	done := 0
	var got []Event
	for _, ch := range chunks {
		var want []Event
		for i, m := range ch {
			AppendEvent(&want, i, access(a, m.Addr(), m.Write()))
		}
		got = got[:0]
		replay(b, ch, &got)
		done += len(ch)
		if !slices.Equal(want, got) {
			t.Fatalf("after access %d: Replay events %v, Access results give %v", done, got, want)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("after access %d: Replay state differs from Access (stats %v vs %v)", done, b.Stats(), a.Stats())
		}
	}
}

// replayStream returns n accesses over a 256 kB space, a third of them
// writes: every set of the caches above sees many tags.
func replayStream(seed uint64, n int) []MemAccess {
	src := rng.New(seed)
	out := make([]MemAccess, n)
	for i := range out {
		out[i] = NewMemAccess(addr.Addr(src.Intn(1<<18)), src.Intn(3) == 0)
	}
	return out
}

// TestSetAssocReplayMatchesAccess: Replay with an event buffer leaves
// exactly the cache one Access per element leaves — arrays, stamps,
// policies, Stats, probe events — and reports exactly the Events the
// Access Results give, on every shape of replayShapes, probed or not,
// in chunks of 0, 1, a few, hundreds and 4096 accesses. Replay with a
// nil buffer leaves the same cache.
func TestSetAssocReplayMatchesAccess(t *testing.T) {
	const n = 30_000
	for si, sh := range replayShapes() {
		for _, probed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v-probed%v", sh, probed), func(t *testing.T) {
				t.Parallel()
				a, b := sh.build(t), sh.build(t)
				if probed {
					a.SetProbe(&logProbe{counts: map[string]int{}})
					b.SetProbe(&logProbe{counts: map[string]int{}})
				}
				src := rng.New(uint64(si))
				var chunks [][]MemAccess
				for s := replayStream(uint64(si), n); len(s) > 0; {
					k := min(len(s), []int{0, 1, src.Intn(16), src.Intn(700), 4096}[src.Intn(5)])
					chunks = append(chunks, s[:k])
					s = s[k:]
				}
				checkReplay(t, a, b, chunks, (*SetAssoc).Access, (*SetAssoc).Replay)
				c := sh.build(t)
				if probed {
					c.SetProbe(&logProbe{counts: map[string]int{}})
				}
				for _, ch := range chunks {
					c.Replay(ch, nil)
				}
				if !reflect.DeepEqual(a, c) {
					t.Fatal("Replay without events leaves another cache than Access")
				}
			})
		}
	}
}

// FuzzSetAssocReplay: for any stream and chunk split, on any shape of
// replayShapes, Replay with events and Access agree as in
// TestSetAssocReplayMatchesAccess. The first byte picks the shape. Each
// following 4-byte group is one access: its low 20 bits address a
// 1 MiB space, bit 20 is the direction, and a top byte of 0xF0 or more
// ends the chunk before the access.
func FuzzSetAssocReplay(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 0x20, 0x00, 0x00, 0x00, 0x20, 0x40, 0x10, 0xF0, 0x20, 0x80, 0x00, 0xF8})
	f.Add([]byte{9, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0xF0, 0x00, 0x00, 0x00, 0xF0})
	f.Add([]byte("replay the sets, report the misses"))
	shapes := replayShapes()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		sh := shapes[int(data[0])%len(shapes)]
		var chunks [][]MemAccess
		var cur []MemAccess
		for rest := data[1:]; len(rest) >= 4; rest = rest[4:] {
			if rest[3] >= 0xF0 {
				chunks = append(chunks, cur)
				cur = nil
			}
			w := binary.LittleEndian.Uint32(rest)
			cur = append(cur, NewMemAccess(addr.Addr(w&(1<<20-1)), w>>20&1 != 0))
		}
		checkReplay(t, sh.build(t), sh.build(t), append(chunks, cur), (*SetAssoc).Access, (*SetAssoc).Replay)
	})
}
