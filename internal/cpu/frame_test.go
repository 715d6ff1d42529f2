package cpu

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/hier"
	"bcache/internal/rng"
	"bcache/internal/trace"
	"bcache/internal/victim"
	"bcache/internal/workload"
)

// l1Kind is one L1 configuration the frame path is checked on. degrade
// marks a B-Cache that falls back to direct-mapped indexing mid-run.
type l1Kind struct {
	name    string
	build   func() (cache.Cache, error)
	degrade bool
}

func setAssocKind(ways int, pol cache.PolicyKind) l1Kind {
	return l1Kind{name: fmt.Sprintf("%dway-%s", ways, pol), build: func() (cache.Cache, error) {
		return cache.NewSetAssoc(16<<10, 32, ways, pol, rng.New(7))
	}}
}

func bcacheKind(name string, pol cache.PolicyKind, degrade bool) l1Kind {
	return l1Kind{name: name, degrade: degrade, build: func() (cache.Cache, error) {
		return core.New(core.Config{SizeBytes: 16 << 10, LineBytes: 32, MF: 8, BAS: 8, Policy: pol, Seed: 9})
	}}
}

// l1Kinds: direct-mapped and 2-, 4- and 8-way LRU (the SetAssoc
// kernel), FIFO and Random (the generic Access loop), the B-Cache on
// its SWAR kernel, under Random and degraded mid-run, and victim16.
func l1Kinds() []l1Kind {
	return []l1Kind{
		setAssocKind(1, cache.LRU), setAssocKind(2, cache.LRU), setAssocKind(4, cache.LRU), setAssocKind(8, cache.LRU),
		setAssocKind(4, cache.FIFO), setAssocKind(4, cache.Random),
		bcacheKind("bcache", cache.LRU, false), bcacheKind("bcache-random", cache.Random, false),
		bcacheKind("bcache-degraded", cache.LRU, true),
		{name: "victim16", build: func() (cache.Cache, error) { return victim.New(16<<10, 32, 16) }},
	}
}

// hierKinds are the hierarchies around the L1s: Table 4's, with an
// 8-entry stream buffer, with a direct-mapped or a B-Cache L2 (xl2),
// and with a probe on the hierarchy and the D-cache (StepFrame takes
// Step).
var hierKinds = []string{"table4", "sb8", "l2-dm", "l2-bcache", "probed"}

// coreConfigs cover unbounded and 1 to 3 memory ports and windows 8 to
// 64 (widths up to the window).
func coreConfigs() []Config {
	return []Config{
		{IssueWidth: 4, RetireWidth: 4, Window: 16, MemPorts: 2},
		{IssueWidth: 4, RetireWidth: 4, Window: 8, MemPorts: 0},
		{IssueWidth: 4, RetireWidth: 4, Window: 32, MemPorts: 1},
		{IssueWidth: 4, RetireWidth: 4, Window: 64, MemPorts: 3},
		{IssueWidth: 8, RetireWidth: 2, Window: 8, MemPorts: 2},
		{IssueWidth: 2, RetireWidth: 8, Window: 16, MemPorts: 3},
	}
}

// recorder passes every access through to its cache and keeps the
// Event each Result gives, numbered from the last reset: the events an
// L1 replay must report.
type recorder struct {
	cache.Cache
	n      int
	events []cache.Event
}

func (r *recorder) Access(a addr.Addr, write bool) cache.Result {
	res := r.Cache.Access(a, write)
	cache.AppendEvent(&r.events, r.n, res)
	r.n++
	return res
}

func (r *recorder) reset() { r.n, r.events = 0, r.events[:0] }

// eventProbe logs every probe event, in order.
type eventProbe struct{ log []string }

func (p *eventProbe) add(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}
func (p *eventProbe) ObserveAccess(frame int, hit, write bool) {
	p.add("access %d %v %v", frame, hit, write)
}
func (p *eventProbe) ObservePD(hit bool)      { p.add("pd %v", hit) }
func (p *eventProbe) ObserveReprogram()       { p.add("reprogram") }
func (p *eventProbe) ObserveEvict(dirty bool) { p.add("evict %v", dirty) }
func (p *eventProbe) ObserveWriteback()       { p.add("writeback") }
func (p *eventProbe) ObserveFault(d cache.FaultDomain, c cache.FaultClass) {
	p.add("fault %v %v", d, c)
}
func (p *eventProbe) ObserveScrub(repaired int, degraded bool) {
	p.add("scrub %d %v", repaired, degraded)
}

// rig is one side of a differential run: a core on its hierarchy.
type rig struct {
	core       *Core
	h          *hier.Hierarchy
	ic, dc, l2 cache.Cache
	probe      *eventProbe
	// irec and drec wrap the per-record side's L1s.
	irec, drec *recorder
}

// newRig builds l1 behind hk's hierarchy with cfg's core; record wraps
// the L1s in recorders (the per-record side).
func newRig(t testing.TB, l1 l1Kind, hk string, cfg Config, record bool) *rig {
	t.Helper()
	ic, err := l1.build()
	if err != nil {
		t.Fatal(err)
	}
	dc, err := l1.build()
	if err != nil {
		t.Fatal(err)
	}
	hc := hier.Defaults()
	var l2 cache.Cache
	switch hk {
	case "sb8":
		hc.StreamBuffer = 8
	case "l2-dm":
		l2, err = cache.NewDirectMapped(hc.L2Size, hc.L2Line)
	case "l2-bcache":
		l2, err = core.New(core.Config{SizeBytes: hc.L2Size, LineBytes: hc.L2Line, MF: 8, BAS: 8, Policy: cache.LRU})
	default:
		l2, err = cache.NewSetAssoc(hc.L2Size, hc.L2Line, hc.L2Ways, cache.LRU, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if l2 == nil {
		if l2, err = cache.NewSetAssoc(hc.L2Size, hc.L2Line, hc.L2Ways, cache.LRU, nil); err != nil {
			t.Fatal(err)
		}
	}
	r := &rig{ic: ic, dc: dc, l2: l2}
	hi, hd := ic, dc
	if record {
		r.irec, r.drec = &recorder{Cache: ic}, &recorder{Cache: dc}
		hi, hd = r.irec, r.drec
	}
	if r.h, err = hier.NewWithL2(hi, hd, l2, hc); err != nil {
		t.Fatal(err)
	}
	if hk == "probed" {
		r.probe = &eventProbe{}
		r.h.SetProbe(r.probe)
		cache.AttachProbe(dc, r.probe)
	}
	if r.core, err = New(r.h, cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// extract returns recs' I-cache stream at 32-byte lines, continuing
// from line *cur, and their D-cache stream: what a trace pass hands
// Frame.Build.
func extract(recs []trace.Record, cur *addr.Addr) (fetch, data []cache.MemAccess) {
	fetch, data = []cache.MemAccess{}, []cache.MemAccess{}
	for _, r := range recs {
		if line := r.PC &^ 31; line != *cur {
			*cur = line
			fetch = append(fetch, cache.NewMemAccess(r.PC, false))
		}
		if r.Kind.IsMem() {
			data = append(data, cache.NewMemAccess(r.Mem, r.Kind == trace.Store))
		}
	}
	return fetch, data
}

// checkFrame steps recs, cut into chunks, through a per-record core
// (step: Step) and a frame core (stepFrame: StepFrame) built alike, and
// fails t unless
// after every chunk both have the same Result, hierarchy counters,
// cache statistics and cache state, the frame's L1 events are those
// each per-record access Result gives, and the probe logs match. A
// direct-mapped Table 4 core steps each frame before the core under
// test, as the timed engines of a pass share one: it must agree with
// its own per-record twin, and the frame it leaves must serve the next
// core as if new.
func checkFrame(t *testing.T, l1 l1Kind, hk string, cfg Config, recs []trace.Record, chunks []int,
	step func(*Core, []trace.Record), stepFrame func(*Core, *Frame)) {
	t.Helper()
	a := newRig(t, l1, hk, cfg, true)
	b := newRig(t, l1, hk, cfg, false)
	// The sharing core: another L1 and core, so its misses and latencies
	// differ from the core under test's.
	shared := setAssocKind(1, cache.LRU)
	if l1.name == shared.name {
		shared = setAssocKind(8, cache.LRU)
	}
	a2 := newRig(t, shared, "table4", Defaults(), false)
	b2 := newRig(t, shared, "table4", Defaults(), false)
	f := NewFrame(4096, 32, hier.Defaults().L1Latency)
	cur := ^addr.Addr(0)
	done := 0
	for _, n := range chunks {
		if l1.degrade && done >= len(recs)/2 {
			for _, r := range []*rig{a, b} {
				r.ic.(*core.BCache).DegradeToDirectMapped()
				r.dc.(*core.BCache).DegradeToDirectMapped()
			}
			l1.degrade = false
		}
		chunk := recs[done : done+n]
		a.irec.reset()
		a.drec.reset()
		step(a.core, chunk)
		fetch, data := extract(chunk, &cur)
		f.Build(chunk, fetch, data)
		step(a2.core, chunk)
		stepFrame(b2.core, f)
		f.fev, f.dev = f.fev[:0], f.dev[:0]
		stepFrame(b.core, f)
		done += n
		sameRigs(t, a, b, done)
		if hk != "probed" {
			sameEvents(t, "I", a.irec.events, f.fev, done)
			sameEvents(t, "D", a.drec.events, f.dev, done)
		}
		sameRigs(t, a2, b2, done)
	}
}

// sameEvents fails t unless the frame core's events, with the level
// below's notes cleared, are the per-record core's.
func sameEvents(t *testing.T, side string, want, got []cache.Event, done int) {
	t.Helper()
	got = slices.Clone(got)
	for i := range got {
		got[i].Below = 0
	}
	if !slices.Equal(want, got) {
		t.Fatalf("after record %d: %s-cache events %v, per-record Results give %v", done, side, got, want)
	}
}

// sameRigs fails t unless a and b agree on everything observable.
func sameRigs(t *testing.T, a, b *rig, done int) {
	t.Helper()
	if ra, rb := a.core.Result(), b.core.Result(); ra != rb {
		t.Fatalf("after record %d: StepFrame %+v, Step %+v", done, rb, ra)
	}
	counters := func(h *hier.Hierarchy) [6]uint64 {
		return [6]uint64{h.MemAccesses, h.MemWrites, h.L1Writebacks, h.L1Refills, h.StreamHits, h.Prefetches}
	}
	if ca, cb := counters(a.h), counters(b.h); ca != cb {
		t.Fatalf("after record %d: hierarchy counters %v, Step gives %v", done, cb, ca)
	}
	for _, c := range []struct {
		name string
		x, y cache.Cache
	}{{"I", a.ic, b.ic}, {"D", a.dc, b.dc}, {"L2", a.l2, b.l2}} {
		if *c.x.Stats() != *c.y.Stats() {
			t.Fatalf("after record %d: %s stats %v, Step gives %v", done, c.name, c.y.Stats(), c.x.Stats())
		}
		if !reflect.DeepEqual(c.x, c.y) {
			t.Fatalf("after record %d: %s cache state differs from Step's", done, c.name)
		}
	}
	if a.probe != nil && !slices.Equal(a.probe.log, b.probe.log) {
		t.Fatalf("after record %d: probe saw %d events, Step's %d", done, len(b.probe.log), len(a.probe.log))
	}
}

// genRecords returns n records of the named benchmark.
func genRecords(t testing.TB, name string, n int) []trace.Record {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, n)
	g.Fill(recs)
	return recs
}

// randomChunks cuts n records into chunks of 0, 1, a few, hundreds or
// a whole frame.
func randomChunks(src *rng.Source, n int) []int {
	var out []int
	for left := n; left > 0; {
		var k int
		switch src.Intn(5) {
		case 0:
			k = src.Intn(2)
		case 1:
			k = src.Intn(16)
		case 2:
			k = src.Intn(700)
		default:
			k = 4096
		}
		k = min(k, left)
		out = append(out, k)
		left -= k
	}
	return out
}

// TestStepFrameMatchesStep: StepFrame leaves what Step leaves — Result,
// hierarchy counters, every cache's statistics and state, probe events
// — and its L1 replays report exactly the events the per-access Results
// give, on every L1 kind behind every hierarchy kind, at every core
// configuration, over the equake, gcc and mcf streams cut into chunks
// of every length from 0 up.
func TestStepFrameMatchesStep(t *testing.T) {
	const n = 20_000
	benches := []string{"equake", "gcc", "mcf"}
	streams := make(map[string][]trace.Record)
	for _, b := range benches {
		streams[b] = genRecords(t, b, n)
	}
	cfgs := coreConfigs()
	run := 0
	for _, l1 := range l1Kinds() {
		for _, hk := range hierKinds {
			cfg := cfgs[run%len(cfgs)]
			bench := benches[run%len(benches)]
			seed := uint64(run)
			run++
			t.Run(fmt.Sprintf("%s/%s/w%d-p%d/%s", l1.name, hk, cfg.Window, cfg.MemPorts, bench), func(t *testing.T) {
				t.Parallel()
				checkFrame(t, l1, hk, cfg, streams[bench], randomChunks(rng.New(seed), n), (*Core).Step, (*Core).StepFrame)
			})
		}
	}
	for i, cfg := range cfgs {
		t.Run(fmt.Sprintf("dm/table4/w%d-i%d-r%d-p%d", cfg.Window, cfg.IssueWidth, cfg.RetireWidth, cfg.MemPorts), func(t *testing.T) {
			t.Parallel()
			checkFrame(t, l1Kinds()[0], "table4", cfg, streams["gcc"], randomChunks(rng.New(uint64(100+i)), n),
				(*Core).Step, (*Core).StepFrame)
		})
	}
}

// FuzzStepFrame: for any record stream, chunk split, L1 kind, hierarchy
// kind and core configuration, StepFrame and Step agree as in
// TestStepFrameMatchesStep. The first three bytes pick the L1, the
// hierarchy and the core. Each following 4-byte group is one record:
// byte 0 holds the kind (low 3 bits, Int when out of range) and the
// destination register, byte 1 the two source registers, byte 2 the
// latency (low 3 bits) and the PC step in words (a step of 0 to 31
// jumps beyond the line), and byte 3 the data address's line in a
// 256 KiB space (with byte 2's high bits); a byte 3 of 0xF0 or more also
// ends the chunk before the record.
func FuzzStepFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{6, 1, 3, 0x03, 0x21, 0x41, 0x10, 0x24, 0x13, 0x09, 0xF3, 0x00, 0x00, 0x00, 0xF0})
	f.Add([]byte{8, 2, 5, 0xFB, 0xFF, 0xFF, 0xFF, 0x1B, 0x00, 0x00, 0xF8, 0x03, 0x10, 0x20, 0x30})
	f.Add([]byte("time a chunk, not an access: replay, then flow"))
	kinds, cfgs := l1Kinds(), coreConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		l1 := kinds[int(data[0])%len(kinds)]
		hk := hierKinds[int(data[1])%len(hierKinds)]
		cfg := cfgs[int(data[2])%len(cfgs)]
		var recs []trace.Record
		var chunks []int
		last := 0
		pc := addr.Addr(0x400000)
		for rest := data[3:]; len(rest) >= 4; rest = rest[4:] {
			if rest[3] >= 0xF0 {
				chunks = append(chunks, len(recs)-last)
				last = len(recs)
			}
			w := binary.LittleEndian.Uint32(rest)
			kind := trace.Kind(rest[0] & 7)
			if kind > trace.Store {
				kind = trace.Int
			}
			r := trace.Record{PC: pc, Kind: kind, Lat: rest[2]&7 + 1,
				Dst: rest[0] >> 3 % trace.NumRegs, Src1: rest[1] & 15, Src2: rest[1] >> 4}
			if kind.IsMem() {
				r.Mem = 0x10000000 + addr.Addr(w>>16&0x1FFF)*32
			}
			recs = append(recs, r)
			if step := addr.Addr(rest[2] >> 3); step == 0 {
				pc += 4096
			} else {
				pc += step * 4
			}
		}
		chunks = append(chunks, len(recs)-last)
		checkFrame(t, l1, hk, cfg, recs, chunks, (*Core).Step, (*Core).StepFrame)
	})
}

// BenchmarkCoreStep times the timing model per instruction on each
// L1 kind of Figure 8 behind Table 4's hierarchy, over 400 000 records
// of the equake, gcc and mcf streams in 4096-record chunks: Step (one
// hierarchy call per access) against StepFrame over frames built
// before the timer starts, as a trace pass shares them.
func BenchmarkCoreStep(b *testing.B) {
	kinds := []l1Kind{setAssocKind(1, cache.LRU), setAssocKind(2, cache.LRU), setAssocKind(4, cache.LRU),
		setAssocKind(8, cache.LRU), bcacheKind("bcache", cache.LRU, false),
		{name: "victim16", build: func() (cache.Cache, error) { return victim.New(16<<10, 32, 16) }}}
	for _, bench := range []string{"equake", "gcc", "mcf"} {
		recs := genRecords(b, bench, 400_000)
		var frames []*Frame
		cur := ^addr.Addr(0)
		for lo := 0; lo < len(recs); lo += 4096 {
			f := NewFrame(4096, 32, hier.Defaults().L1Latency)
			f.cur = cur // continue the stream
			chunk := recs[lo:min(lo+4096, len(recs))]
			fetch, data := extract(chunk, &cur)
			f.Build(chunk, fetch, data)
			frames = append(frames, f)
		}
		for _, l1 := range kinds {
			for _, mode := range []string{"step", "frame"} {
				b.Run(bench+"/"+l1.name+"/"+mode, func(b *testing.B) {
					instr := 0
					for b.Loop() {
						r := newRig(b, l1, "table4", Defaults(), false)
						for _, f := range frames {
							if mode == "step" {
								r.core.Step(f.recs)
							} else {
								r.core.StepFrame(f)
							}
						}
						instr += len(recs)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
				})
			}
		}
	}
}
