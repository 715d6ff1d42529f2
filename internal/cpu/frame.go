package cpu

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/trace"
)

// maxFrameRecords bounds the records of one Frame: a frame keeps each
// cache access's record position in 16 bits.
const maxFrameRecords = 1 << 16

// maxFrameLatency bounds a latency a frame's op holds (16 bits).
const maxFrameLatency = 1<<16 - 1

// sinkReg is the register a frame's op names for "no destination":
// Dst 0 writes it, so the dataflow loop writes a register every
// instruction instead of testing for one. No source names it.
const sinkReg = trace.NumRegs

// regMask keeps the dataflow loop's register reads and writes inside
// its register array without a bounds check.
const regMask = 63

// op is one record as the batched dataflow reads it: everything of the
// record the timing depends on, once the caches have answered, packed
// in one word so the loop loads it once. From the low bits:
//
//	lat    16 bits  cycles from execution start to the result: a load's
//	                data-access latency, else the record's own latency
//	stall  16 bits  cycles a fetch of the record's line holds dispatch
//	                back (the fetch latency less one); 0 when the record
//	                does not start a line
//	src1    6 bits  source register
//	src2    6 bits  source register
//	dst     6 bits  destination register, sinkReg for none
//	mem     1 bit   a load or a store: it takes a memory port
//	mslot   4 bits  the memory operations before the record in its
//	                frame, mod portRing: the record's slot in flow's
//	                port ring, so the loop carries no count of them
type op uint64

const (
	opStall = 16
	opSrc1  = 32
	opSrc2  = 38
	opDst   = 44
	opMem   = 50
	opMslot = 51
)

// withLat returns o with latency lat.
func (o op) withLat(lat int) op { return o&^0xFFFF | op(lat) }

// withStall returns o with fetch stall s.
func (o op) withStall(s int) op { return o&^(0xFFFF<<opStall) | op(s)<<opStall }

// A Frame is one chunk of a record stream laid out for Core.StepFrame,
// built once and stepped by every core that reads the stream. It holds
// the chunk's I-cache stream (one read per record that starts a fetch
// line), its D-cache stream, each access's record position, and one
// base op per record in which every cache access hits: a fetch of a new
// line stalls L1Latency-1 cycles and a load takes L1Latency. A core
// replays the two streams through its caches, patches the base ops with
// the latencies of the accesses that did not hit, runs its dataflow
// over them, and restores them for the next core.
//
// The frame also holds the event buffers the caches fill, reused by
// each core in turn, so a frame serves the cores of one goroutine.
type Frame struct {
	lineBytes, l1Latency int
	mask                 addr.Addr
	// prev and cur are the fetch line before the frame's records and
	// after them; a core steps a frame only from prev.
	prev, cur addr.Addr

	recs            []trace.Record
	fetch, data     []cache.MemAccess
	fetchAt, dataAt []uint16
	ops             []op
	loads, stores   uint64

	// fev and dev are a core's events while it steps.
	fev, dev []cache.Event
}

// NewFrame returns an empty frame for chunks of up to size records, on
// I-caches with lineBytes-byte lines behind a hierarchy whose L1 hit
// time is l1Latency cycles.
func NewFrame(size, lineBytes, l1Latency int) *Frame {
	if size <= 0 || size > maxFrameRecords {
		panic(fmt.Sprintf("cpu: frame of %d records outside 1..%d", size, maxFrameRecords))
	}
	if lineBytes <= 0 || !addr.IsPow2(uint64(lineBytes)) {
		panic(fmt.Sprintf("cpu: frame line size %d is not a positive power of two", lineBytes))
	}
	if l1Latency <= 0 || l1Latency > maxFrameLatency {
		panic(fmt.Sprintf("cpu: frame L1 latency %d outside 1..%d", l1Latency, maxFrameLatency))
	}
	line := ^addr.Addr(0)
	return &Frame{
		lineBytes: lineBytes,
		l1Latency: l1Latency,
		mask:      ^addr.Addr(uint64(lineBytes) - 1),
		prev:      line,
		cur:       line,
		fetchAt:   make([]uint16, 0, size),
		dataAt:    make([]uint16, 0, size),
		ops:       make([]op, 0, size),
		// One access in eight of a chunk's records is as many events as
		// a stream misses on; a buffer that fills grows, on the chunk
		// that overflows it.
		fev: make([]cache.Event, 0, size/8),
		dev: make([]cache.Event, 0, size/8),
	}
}

// Bytes is the memory the frame's buffers hold, the streams it was
// handed excluded.
func (f *Frame) Bytes() int64 {
	const opBytes, eventBytes = 8, 16 // op, cache.Event
	return int64(cap(f.fetchAt)+cap(f.dataAt))*2 +
		int64(cap(f.ops))*opBytes +
		int64(cap(f.fev)+cap(f.dev))*eventBytes
}

// Build frames recs, the next records of the stream. fetch and data
// are recs' I-cache stream at the frame's line size and its D-cache
// stream (a read per line-starting PC, an access per load or store, in
// order), as a trace pass extracts them for its other engines; Build
// keeps them, not a copy. Build panics if recs outnumber the frame's
// size, a register is out of range, or the streams do not match recs.
func (f *Frame) Build(recs []trace.Record, fetch, data []cache.MemAccess) {
	if len(recs) > cap(f.ops) {
		panic(fmt.Sprintf("cpu: %d records exceed the frame's %d", len(recs), cap(f.ops)))
	}
	f.prev = f.cur
	cur, mask := f.cur, f.mask
	hitStall, hitLat := op(f.l1Latency-1)<<opStall, op(f.l1Latency)
	ops := f.ops[:len(recs)]
	// Positions are written by index, not appended: the loop keeps two
	// counts live instead of two slice headers.
	fetchAt, dataAt := f.fetchAt[:len(recs)], f.dataAt[:len(recs)]
	nf, nd, nl := 0, 0, 0
	for x := range recs {
		r := &recs[x]
		if r.Src1|r.Src2|r.Dst >= trace.NumRegs {
			panic(fmt.Sprintf("cpu: register out of range in %+v", *r))
		}
		dst := r.Dst
		if dst == 0 {
			dst = sinkReg
		}
		o := op(r.Lat) | op(r.Src1)<<opSrc1 | op(r.Src2)<<opSrc2 | op(dst)<<opDst | op(nd%portRing)<<opMslot
		if line := r.PC & mask; line != cur {
			cur = line
			o |= hitStall
			fetchAt[nf] = uint16(x)
			nf++
		}
		if r.Kind.IsMem() {
			o |= 1 << opMem
			if r.Kind == trace.Load {
				o = o&^0xFFFF | hitLat
				nl++
			}
			dataAt[nd] = uint16(x)
			nd++
		}
		ops[x] = o
	}
	if len(fetch) != nf || len(data) != nd {
		panic(fmt.Sprintf("cpu: frame streams of %d fetches and %d data accesses, records give %d and %d",
			len(fetch), len(data), nf, nd))
	}
	f.recs, f.fetch, f.data = recs, fetch, data
	f.fetchAt, f.dataAt, f.ops = fetchAt[:nf], dataAt[:nd], ops
	f.loads, f.stores = uint64(nl), uint64(nd-nl)
	f.cur = cur
}

// LineBytes returns the I-cache line size the frame's fetches are at.
func (f *Frame) LineBytes() int { return f.lineBytes }

// StepFrame runs f's records, the next of the stream, through the
// model: the same cycles, counters and cache state as Step over the
// records f was built from. The caches replay the frame's two streams
// first — no cache's state depends on timing — and the dataflow then
// runs over the frame's base ops patched with the latencies of the
// accesses that did not hit. The patch is undone after the loop, which
// neither calls nor fails, so the next core finds the base ops;
// patching in place rather than a copy keeps the frame's live heap
// down. A hierarchy with a probe attached, whose events must come in
// access order, a frame built for another line size or L1 latency, a
// frame that does not continue the core's stream, and hierarchy
// latencies a frame's 16-bit fields cannot hold all take Step.
func (c *Core) StepFrame(f *Frame) {
	h := c.h
	if !c.fits || h.Observed() || f.mask != c.lineMask || f.l1Latency != h.Config().L1Latency ||
		f.prev != c.curFetchLine {
		c.Step(f.recs)
		return
	}
	f.fev, f.dev = f.fev[:0], f.dev[:0]
	h.Replay(f.fetch, f.data, f.fetchAt, f.dataAt, &f.fev, &f.dev)
	f.setLatencies(h.Latency)
	c.flow(f.ops, int(f.loads+f.stores))
	f.setLatencies(f.hitLatency)
	c.res.Loads += f.loads
	c.res.Stores += f.stores
	c.curFetchLine = f.cur
}

// setLatencies writes lat(e) into the op of every event's access: the
// fetch stall (lat(e)-1) of a fetch's record and the latency of a
// load's. A store's latency never enters the pipeline.
func (f *Frame) setLatencies(lat func(cache.Event) int) {
	for _, e := range f.fev {
		x := f.fetchAt[e.Index]
		f.ops[x] = f.ops[x].withStall(lat(e) - 1)
	}
	for _, e := range f.dev {
		if !f.data[e.Index].Write() {
			x := f.dataAt[e.Index]
			f.ops[x] = f.ops[x].withLat(lat(e))
		}
	}
}

// hitLatency is the latency of any access on an L1 hit: the one Build
// wrote.
func (f *Frame) hitLatency(cache.Event) int { return f.l1Latency }

// flowRing and portRing are the sizes of flow's local rings: the
// dispatch and retire cycles of the last flowRing instructions, and the
// start cycles of the last portRing memory operations. They bound the
// window and the port count StepFrame batches (ports below portRing:
// an op reads the slot portRing back after the ones between wrote it).
const (
	flowRing = 128
	portRing = 16
)

// flowState is flow's working state: the dispatch and retire cycles of
// instruction x in slot x of a flowRing-entry ring (the instructions
// before the chunk in the slots below 0, mod flowRing), the register
// ready cycles with the sink register, the start cycle of memory
// operation k in slot k of a portRing-entry ring (its op's mslot), and
// the core's bounds. Every index is masked to its array, so no access
// needs a bounds check, and the loop reads the bounds from memory,
// which leaves the registers to its loop-carried values.
type flowState struct {
	dispatch, retired            [flowRing]uint64
	regs                         [regMask + 1]uint64
	memRing                      [portRing]uint64
	window, issue, retire, ports int
	// sel masks an op's port update off when the ports are unbounded.
	sel uint64
}

// flow is Step's dispatch, execute and retire over ops, mops of them
// memory operations, with no cache access, no call and no
// data-dependent branch: every bound is a max and the memory-port
// update a masked select. One count indexes each ring at every
// look-back (flowState). It runs in a time base one cycle late — cycle
// t is held as t+1 — so a ring slot no instruction has written yet
// holds 0, cycle -1, which no look-back bound can raise: the window,
// issue-width and retire-width tests Step makes for the first
// instructions of a run fall away. The core's state moves into a
// flowState, shifted, on entry, and back on exit.
func (c *Core) flow(ops []op, mops int) {
	const ringMask, portMask = flowRing - 1, portRing - 1
	var s flowState
	c.flowIn(&s)
	fetchReady, lastRetire := c.fetchReady+1, c.lastRetire+1
	for x, o := range ops {
		w := uint64(o)
		fetchReady += w >> opStall & 0xFFFF
		fetchReady = max(fetchReady, s.retired[(x-s.window)&ringMask], s.dispatch[(x-s.issue)&ringMask]+1)
		s.dispatch[x&ringMask] = fetchReady

		start := max(fetchReady, s.regs[w>>opSrc1&regMask], s.regs[w>>opSrc2&regMask])
		// An op that takes a port starts after the op ports back did.
		// The slot is the next memory op's for an op that takes none:
		// that op overwrites it before any read.
		k := int(w >> opMslot & portMask)
		start = max(start, (s.memRing[(k-s.ports)&portMask]+1)&(-(w>>opMem&1)&s.sel))
		s.memRing[k] = start
		complete := start + w&0xFFFF
		s.regs[w>>opDst&regMask] = complete

		lastRetire = max(complete, lastRetire, s.retired[(x-s.retire)&ringMask]+1)
		s.retired[x&ringMask] = lastRetire
	}
	c.flowOut(&s, len(ops), mops)
	c.fetchReady, c.lastRetire = fetchReady-1, lastRetire-1
}

// flowIn moves the core's state into s, a cycle late: the dispatch and
// retire cycles of the last Window instructions stepped (fewer early in
// a run) from the core's rings, where instruction j is at slot
// j mod Window, to slot j-c.i mod flowRing; the register ready cycles;
// and the start cycles of the last MemPorts memory operations, oldest
// (at memPos) first, to slots -MemPorts..-1 mod portRing.
func (c *Core) flowIn(s *flowState) {
	w := uint64(c.cfg.Window)
	for j := c.i - min(c.i, w); j < c.i; j++ {
		s.dispatch[(j-c.i)%flowRing] = c.dispatchAt[j%w] + 1
		s.retired[(j-c.i)%flowRing] = c.retireAt[j%w] + 1
	}
	for r, t := range c.regReady {
		s.regs[r] = t + 1
	}
	s.ports = len(c.memStart)
	for q := range s.ports {
		s.memRing[(q-s.ports)&(portRing-1)] = c.memStart[(c.memPos+q)%s.ports] + 1
	}
	if s.ports > 0 {
		s.sel = ^uint64(0)
	}
	s.window, s.issue, s.retire = c.cfg.Window, c.cfg.IssueWidth, c.cfg.RetireWidth
}

// flowOut moves the state back after flow stepped n instructions, mops
// of them memory operations, and sets the core's ring positions.
func (c *Core) flowOut(s *flowState, n, mops int) {
	c.i += uint64(n)
	w := uint64(c.cfg.Window)
	first := c.i - uint64(n) // the instruction at slot 0
	for j := c.i - min(c.i, w); j < c.i; j++ {
		c.dispatchAt[j%w] = s.dispatch[(j-first)%flowRing] - 1
		c.retireAt[j%w] = s.retired[(j-first)%flowRing] - 1
	}
	c.slot = int(c.i % w)
	c.issueIdx = int((c.i + w - uint64(c.cfg.IssueWidth)) % w)
	c.retireIdx = int((c.i + w - uint64(c.cfg.RetireWidth)) % w)
	for r := range c.regReady {
		c.regReady[r] = s.regs[r] - 1
	}
	for q := range s.ports {
		c.memStart[q] = s.memRing[(mops-s.ports+q)&(portRing-1)] - 1
	}
	c.memPos = 0
}
