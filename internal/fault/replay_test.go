package fault

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/rng"
	"bcache/internal/trace"
	"bcache/internal/workload"
)

// replayPoint is one B-Cache design point an injector wraps.
type replayPoint struct{ size, mf, bas int }

// campaignPoints are the fault campaign's design points (16 kB).
var campaignPoints = []replayPoint{{16 << 10, 2, 8}, {16 << 10, 8, 8}, {16 << 10, 8, 4}, {16 << 10, 16, 8}}

// replayPoints are every MF × BAS design point of Figure 3 (16 kB, BAS
// 8, MF 2..512), Figure 12 (8 and 32 kB, MF 2..16 × BAS 4 and 8) and
// the fault campaign.
func replayPoints() []replayPoint {
	pts := append([]replayPoint(nil), campaignPoints...)
	for mf := 2; mf <= 512; mf *= 2 {
		pts = append(pts, replayPoint{16 << 10, mf, 8})
	}
	for _, size := range []int{32 << 10, 8 << 10} {
		for _, bas := range []int{4, 8} {
			for _, mf := range []int{2, 4, 8, 16} {
				pts = append(pts, replayPoint{size, mf, bas})
			}
		}
	}
	return pts
}

// replayRates are the injection rates the differential tests sweep: the
// campaign's and one ten times its highest.
var replayRates = []float64{0, 1e-5, 1e-4, 1e-3, 1e-2}

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

// replayCase is one injector configuration of the differential tests.
type replayCase struct {
	pt     replayPoint
	policy cache.PolicyKind
	cfg    Config
	// probed attaches a logProbe; degradeLimit, when positive, arms the
	// B-Cache's scrub degradation at that many repairs.
	probed       bool
	degradeLimit int
}

// build returns an injector for rc.
func (rc replayCase) build(t testing.TB) *Injector {
	t.Helper()
	bc, err := core.New(core.Config{SizeBytes: rc.pt.size, LineBytes: 32, MF: rc.pt.mf, BAS: rc.pt.bas, Policy: rc.policy, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	bc.SetScrubDegradeLimit(rc.degradeLimit)
	in, err := Wrap(bc, rc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rc.probed {
		in.SetProbe(&logProbe{})
	}
	return in
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

// sameInjector fails t unless the Access-driven injector a and the
// Replay-driven injector b are reflect.DeepEqual — wrapped cache,
// generator, counts, scrub totals, fault log and probe events — after
// access done.
func sameInjector(t *testing.T, a, b *Injector, done int) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("after access %d: Replay state differs from Access\n access counts %+v stats %v\n replay counts %+v stats %v",
			done, a.Counts(), a.Stats(), b.Counts(), b.Stats())
	}
}

// sameFinalScrub runs FinalScrub on both injectors and fails t unless
// they return the same verdict and stay reflect.DeepEqual.
func sameFinalScrub(t *testing.T, a, b *Injector) {
	t.Helper()
	ea, eb := a.FinalScrub(), b.FinalScrub()
	if fmt.Sprint(ea) != fmt.Sprint(eb) || !reflect.DeepEqual(a, b) {
		t.Fatalf("FinalScrub: Access %v, Replay %v, or the states differ after it", ea, eb)
	}
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

// testStream is n accesses over a 1 MiB space, a quarter of them
// writes.
func testStream(seed uint64, n int) []cache.MemAccess {
	r := rng.New(seed)
	out := make([]cache.MemAccess, n)
	for i := range out {
		out[i] = cache.NewMemAccess(addr.Addr(r.Uint64())&0xFFFFF, r.Intn(4) == 0)
	}
	return out
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

// TestInjectorReplayMatchesAccess: Replay injects, scrubs and accesses
// exactly as one Access per element does — same fault log with the same
// access ordinals, same counts and scrub totals, same wrapped cache and
// generator state, same FinalScrub — at every design point of Figures 3
// and 12 and the fault campaign, at rates 0 to 1e-2 under every
// protection, with a scrub period that divides 4096 and two that do
// not, split into chunks of every length from 0 up. The campaign points
// also run under Random, probed, and with degradation armed so the
// cache degrades mid-stream.
func TestInjectorReplayMatchesAccess(t *testing.T) {
	const accesses = 12000
	var cases []replayCase
	scrubs := []uint64{4096, 1000, 0, 333}
	for pi, pt := range replayPoints() {
		for ri, rate := range replayRates {
			for _, prot := range []Protection{None, Parity, SECDED} {
				cfg := Config{Rate: rate, Protection: prot, Seed: uint64(pi)<<8 | uint64(ri), ScrubEvery: scrubs[(pi+ri)%len(scrubs)]}
				cases = append(cases, replayCase{pt: pt, policy: cache.LRU, cfg: cfg})
				if pi >= len(campaignPoints) {
					continue
				}
				cases = append(cases,
					replayCase{pt: pt, policy: cache.Random, cfg: cfg},
					replayCase{pt: pt, policy: cache.LRU, cfg: cfg, probed: true})
				pd := cfg
				pd.Domains = []cache.FaultDomain{cache.FaultPD}
				cases = append(cases, replayCase{pt: pt, policy: cache.LRU, cfg: pd, degradeLimit: 2})
			}
		}
	}
	degraded := 0
	for i, rc := range cases {
		name := fmt.Sprintf("%dk-mf%d-bas%d-%s-r%g-%s-scrub%d-probed%v-degrade%d",
			rc.pt.size>>10, rc.pt.mf, rc.pt.bas, rc.policy, rc.cfg.Rate, rc.cfg.Protection, rc.cfg.ScrubEvery, rc.probed, rc.degradeLimit)
		t.Run(name, func(t *testing.T) {
			a, b := rc.build(t), rc.build(t)
			src := rng.New(uint64(i))
			done := 0
			for _, chunk := range split(testStream(uint64(i), accesses), func() int { return chunkSize(src) }) {
				var want, got []cache.Event
				for i, m := range chunk {
					cache.AppendEvent(&want, i, a.Access(m.Addr(), m.Write()))
				}
				b.Replay(chunk, &got)
				sameEvents(t, want, got, done)
				done += len(chunk)
				sameInjector(t, a, b, done)
			}
			sameFinalScrub(t, a, b)
			if a.Degraded() {
				degraded++
			}
		})
	}
	if degraded == 0 {
		t.Error("no case degraded mid-stream; the degradation path went untested")
	}
}

// FuzzInjectorReplay: for any stream, any chunk split, any design point
// and any rate, protection and scrub period, Replay and Access leave
// identical injectors. The first six bytes pick the case: design point,
// rate, protection, scrub period, and flags (Random, probed, PD-only
// injection with degradation armed). Each following 4-byte group is
// one access: its low 20 bits address a 1 MiB space, bit 20 is the
// direction, and a top byte of 0xF0 or more ends the chunk before the
// access (consecutive markers make empty chunks).
func FuzzInjectorReplay(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 4, 0, 1, 1, 0, 0x20, 0x00, 0x00, 0x00, 0x20, 0x40, 0x10, 0xF0, 0x20, 0x80, 0x00, 0xF8})
	f.Add([]byte{2, 4, 1, 3, 2, 7, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0xF0, 0x00, 0x00, 0x00, 0xF0})
	f.Add([]byte("inject at the same ordinals, chunk or no chunk"))
	pts := replayPoints()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		rc := replayCase{pt: pts[int(data[0])%len(pts)], policy: cache.LRU, cfg: Config{
			Rate:       replayRates[int(data[1])%len(replayRates)],
			Protection: Protection(data[2] % 3),
			Seed:       uint64(data[3]),
			ScrubEvery: uint64(data[4]) * 7,
		}}
		flags := data[5]
		if flags&1 != 0 {
			rc.policy = cache.Random
		}
		rc.probed = flags&2 != 0
		if flags&4 != 0 {
			rc.cfg.Domains = []cache.FaultDomain{cache.FaultPD}
			rc.degradeLimit = 2
		}
		a, b := rc.build(t), rc.build(t)
		var stream []cache.MemAccess
		var cuts []int // chunk lengths
		last := 0
		for rest := data[6:]; len(rest) >= 4; rest = rest[4:] {
			w := binary.LittleEndian.Uint32(rest)
			if rest[3] >= 0xF0 {
				cuts = append(cuts, len(stream)-last)
				last = len(stream)
			}
			stream = append(stream, cache.NewMemAccess(addr.Addr(w&(1<<20-1)), w>>20&1 != 0))
		}
		done := 0
		for _, chunk := range split(stream, func() int {
			if len(cuts) == 0 {
				return -1
			}
			n := cuts[0]
			cuts = cuts[1:]
			return n
		}) {
			var want, got []cache.Event
			for i, m := range chunk {
				cache.AppendEvent(&want, i, a.Access(m.Addr(), m.Write()))
			}
			b.Replay(chunk, &got)
			sameEvents(t, want, got, done)
			done += len(chunk)
			sameInjector(t, a, b, done)
		}
		sameFinalScrub(t, a, b)
	})
}

// BenchmarkReplay times a fault-injected B-Cache as the fault campaign
// runs it (16 kB, MF 8, BAS 8, rate 1e-4, parity, a scrub every 4096
// accesses) on the gcc and equake data streams, one Access per element
// against one Replay per 4096-record chunk, in ns/access.
func BenchmarkReplay(b *testing.B) {
	rc := replayCase{pt: replayPoint{16 << 10, 8, 8}, policy: cache.LRU,
		cfg: Config{Rate: 1e-4, Protection: Parity, Seed: 1, ScrubEvery: 4096}}
	for _, name := range []string{"gcc", "equake"} {
		chunks := benchChunks(b, name)
		for _, mode := range []string{"access", "replay"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				in := rc.build(b)
				n := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ch := chunks[i%len(chunks)]
					if mode == "replay" {
						in.Replay(ch, nil)
					} else {
						for _, m := range ch {
							in.Access(m.Addr(), m.Write())
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
