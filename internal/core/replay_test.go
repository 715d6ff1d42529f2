package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
	"bcache/internal/trace"
	"bcache/internal/workload"
)

// replayConfigs are the MF × BAS design points Figure 3 (16 kB, BAS 8,
// MF 2..512), Figure 12 (8 and 32 kB, MF 2..16 × BAS 4 and 8) and the
// fault campaign (16 kB) replay, each at the sizes it is replayed at.
// MF ≥ 32 at BAS 8 is off the SWAR path, so Replay loops over Access
// there.
func replayConfigs() []Config {
	var cfgs []Config
	add := func(size, mf, bas int) {
		cfgs = append(cfgs, Config{SizeBytes: size, LineBytes: 32, MF: mf, BAS: bas, Policy: cache.LRU, Seed: 0xB00C})
	}
	for mf := 2; mf <= 512; mf *= 2 {
		add(16<<10, mf, 8)
	}
	for _, size := range []int{32 << 10, 8 << 10} {
		for _, bas := range []int{4, 8} {
			for _, mf := range []int{2, 4, 8, 16} {
				add(size, mf, bas)
			}
		}
	}
	add(16<<10, 8, 4) // the fault campaign's one point not above
	return cfgs
}

// logProbe records every probe event, in order.
type logProbe struct{ events []string }

func (p *logProbe) log(format string, args ...any) {
	p.events = append(p.events, fmt.Sprintf(format, args...))
}
func (p *logProbe) ObserveAccess(frame int, hit, write bool) {
	p.log("access %d %v %v", frame, hit, write)
}
func (p *logProbe) ObservePD(hit bool)      { p.log("pd %v", hit) }
func (p *logProbe) ObserveReprogram()       { p.log("reprogram") }
func (p *logProbe) ObserveEvict(dirty bool) { p.log("evict %v", dirty) }
func (p *logProbe) ObserveWriteback()       { p.log("writeback") }
func (p *logProbe) ObserveFault(d cache.FaultDomain, c cache.FaultClass) {
	p.log("fault %v %v", d, c)
}
func (p *logProbe) ObserveScrub(repaired int, degraded bool) {
	p.log("scrub %d %v", repaired, degraded)
}

// memStream packs diffTrace's stream as a chunk's MemAccess stream.
func memStream(seed uint64, n int) []cache.MemAccess {
	var out []cache.MemAccess
	for _, acc := range diffTrace(seed, n) {
		out = append(out, cache.NewMemAccess(acc.a, acc.write))
	}
	return out
}

// chunkSize returns a chunk length from src: mostly short, often 0 or 1,
// sometimes a whole pass chunk.
func chunkSize(src *rng.Source) int {
	switch src.Intn(4) {
	case 0:
		return src.Intn(2)
	case 1:
		return src.Intn(16)
	case 2:
		return src.Intn(600)
	}
	return 4096
}

// split cuts stream into chunks of the lengths next returns; a
// negative length, or one past the end, makes the rest one chunk.
func split(stream []cache.MemAccess, next func() int) [][]cache.MemAccess {
	var chunks [][]cache.MemAccess
	for len(stream) > 0 {
		n := next()
		if n < 0 || n > len(stream) {
			n = len(stream)
		}
		chunks = append(chunks, stream[:n])
		stream = stream[n:]
	}
	return chunks
}

// sameEngine fails t unless the Access-driven cache a and the
// Replay-driven cache b are reflect.DeepEqual after access done.
func sameEngine(t *testing.T, a, b *BCache, done int) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("after access %d: Replay state differs from Access\n access stats %v pd %+v\n replay stats %v pd %+v",
			done, a.Stats(), a.PDStats(), b.Stats(), b.PDStats())
	}
}

// sameEvents fails t unless Replay reported exactly the events the
// Access loop derived from each Result, in order.
func sameEvents(t *testing.T, want, got []cache.Event, done int) {
	t.Helper()
	if !slices.Equal(want, got) {
		t.Fatalf("after access %d: Replay reported %d events %v, Access results give %d %v",
			done, len(got), got, len(want), want)
	}
}

// TestBCacheReplayMatchesAccess: Replay leaves the engine exactly as one
// Access per element does — arrays, LRU clock, Random streams, Stats,
// PDStats and probe events — at every design point of Figures 3 and 12
// and the fault campaign, under LRU and Random, split into chunks of
// every length from 0 up, on a cache that degrades mid-stream, and on a
// probed cache.
func TestBCacheReplayMatchesAccess(t *testing.T) {
	const accesses = 20000
	for ci, cfg := range replayConfigs() {
		for _, pol := range []cache.PolicyKind{cache.LRU, cache.Random} {
			for _, variant := range []string{"plain", "degrade", "probed"} {
				cfg := cfg
				cfg.Policy = pol
				t.Run(fmt.Sprintf("%dk-mf%d-bas%d-%s-%s", cfg.SizeBytes>>10, cfg.MF, cfg.BAS, pol, variant), func(t *testing.T) {
					t.Parallel()
					a, b := mustBCache(t, cfg), mustBCache(t, cfg)
					if variant == "probed" {
						a.SetProbe(&logProbe{})
						b.SetProbe(&logProbe{})
					}
					degradeAt := -1
					if variant == "degrade" {
						degradeAt = accesses / 2
					}
					src := rng.New(uint64(ci)<<8 | uint64(pol))
					done := 0
					for _, chunk := range split(memStream(uint64(ci), accesses), func() int { return chunkSize(src) }) {
						if degradeAt >= 0 && done >= degradeAt {
							a.DegradeToDirectMapped()
							b.DegradeToDirectMapped()
							degradeAt = -1
						}
						var want, got []cache.Event
						for i, m := range chunk {
							cache.AppendEvent(&want, i, a.Access(m.Addr(), m.Write()))
						}
						b.Replay(chunk, &got)
						sameEvents(t, want, got, done)
						done += len(chunk)
						sameEngine(t, a, b, done)
					}
					if a.Stats().Accesses != accesses {
						t.Fatalf("accesses = %d, want %d", a.Stats().Accesses, accesses)
					}
				})
			}
		}
	}
}

// FuzzBCacheReplay: for any stream, any chunk split and any design
// point, Replay and Access leave identical engines. Each 4-byte group
// is one access: its low 23 bits address a 8 MiB space (every row sees
// many tags), bit 23 is the direction, and a top byte of 0xF0 or more
// ends the chunk before the access (consecutive markers make empty
// chunks). The first two bytes pick the design point and the variant.
func FuzzBCacheReplay(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 0x20, 0x00, 0x00, 0x00, 0x20, 0x40, 0x00, 0xF0, 0x20, 0x80, 0x00, 0xF8})
	f.Add([]byte{4, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0xF0, 0x00, 0x00, 0x00, 0xF0})
	f.Add([]byte("replay the chunk, not the access"))
	cfgs := replayConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := cfgs[int(data[0])%len(cfgs)]
		if data[1]&1 != 0 {
			cfg.Policy = cache.Random
		}
		a, b := mustBCache(t, cfg), mustBCache(t, cfg)
		if data[1]&2 != 0 {
			a.SetProbe(&logProbe{})
			b.SetProbe(&logProbe{})
		}
		var stream []cache.MemAccess
		var cuts []int // chunk lengths
		last := 0
		for rest := data[2:]; len(rest) >= 4; rest = rest[4:] {
			w := binary.LittleEndian.Uint32(rest)
			if rest[3] >= 0xF0 {
				cuts = append(cuts, len(stream)-last)
				last = len(stream)
			}
			stream = append(stream, cache.NewMemAccess(addrOf(w), w>>23&1 != 0))
		}
		chunks := split(stream, func() int {
			if len(cuts) == 0 {
				return -1
			}
			n := cuts[0]
			cuts = cuts[1:]
			return n
		})
		done := 0
		for i, chunk := range chunks {
			if data[1]&4 != 0 && i == len(chunks)/2 {
				a.DegradeToDirectMapped()
				b.DegradeToDirectMapped()
			}
			var want, got []cache.Event
			for i, m := range chunk {
				cache.AppendEvent(&want, i, a.Access(m.Addr(), m.Write()))
			}
			b.Replay(chunk, &got)
			sameEvents(t, want, got, done)
			done += len(chunk)
			sameEngine(t, a, b, done)
		}
	})
}

// addrOf is a fuzz word's address: its low 23 bits.
func addrOf(w uint32) addr.Addr { return addr.Addr(w & (1<<23 - 1)) }

// BenchmarkReplay times the B-Cache at the paper's design point (16 kB,
// MF 8, BAS 8, LRU) on the gcc and equake data streams, one Access per
// element against one Replay per 4096-record chunk, in ns/access.
func BenchmarkReplay(b *testing.B) {
	for _, name := range []string{"gcc", "equake"} {
		chunks := benchChunks(b, name)
		for _, mode := range []string{"access", "replay"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				c := mustBCache(b, Config{SizeBytes: 16 << 10, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.LRU})
				n := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ch := chunks[i%len(chunks)]
					if mode == "replay" {
						c.Replay(ch, nil)
					} else {
						for _, m := range ch {
							c.Access(m.Addr(), m.Write())
						}
					}
					n += len(ch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
			})
		}
	}
}

// benchChunks is the data stream of 400 000 records of the named
// benchmark, cut at the pass's 4096-record chunk boundaries.
func benchChunks(b *testing.B, name string) [][]cache.MemAccess {
	b.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		b.Fatal(err)
	}
	var chunks [][]cache.MemAccess
	recs := make([]trace.Record, 4096)
	for i := 0; i < 400_000/len(recs); i++ {
		g.Fill(recs)
		var ch []cache.MemAccess
		for _, r := range recs {
			if r.Kind.IsMem() {
				ch = append(ch, cache.NewMemAccess(r.Mem, r.Kind == trace.Store))
			}
		}
		chunks = append(chunks, ch)
	}
	return chunks
}
