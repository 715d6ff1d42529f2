// Package hier composes level-one instruction and data caches with the
// unified L2 and main memory of the paper's evaluation platform
// (Table 4): split 16 kB L1s, a 256 kB 4-way unified L2 with 128-byte
// lines and a 6-cycle hit latency, and 100-cycle main memory.
//
// The hierarchy is the single point the CPU model and the energy model
// query: it returns access latencies and maintains the per-level traffic
// counters (L2 accesses and misses, memory accesses, writebacks).
//
// Fetch and Data serve one access each. Replay serves a chunk: no
// cache's state depends on timing, so each L1 runs its own stream of
// the chunk in one batch, and only the accesses that were not plain
// hits go on to the L2, merged back into program order.
package hier

import (
	"fmt"
	"reflect"

	"bcache/internal/addr"
	"bcache/internal/cache"
)

// Config carries the hierarchy latencies. Defaults() matches Table 4.
type Config struct {
	L1Latency  int // L1 hit time in cycles
	L2Latency  int // L2 hit time in cycles
	MemLatency int // main-memory access time in cycles

	// L2Size/L2Line/L2Ways shape the unified L2.
	L2Size int
	L2Line int
	L2Ways int

	// StreamBuffer enables a FIFO stream buffer of the given depth on
	// the data side (Jouppi): every L1 miss prefetches the next line
	// into the buffer, and an L1 miss that hits the buffer is serviced
	// in L1Latency+1 cycles instead of going to the L2. Zero disables.
	StreamBuffer int
}

// Defaults returns the paper's Table 4 configuration.
func Defaults() Config {
	return Config{
		L1Latency:  1,
		L2Latency:  6,
		MemLatency: 100,
		L2Size:     256 * 1024,
		L2Line:     128,
		L2Ways:     4,
	}
}

// Hierarchy is a two-level memory system with split L1s.
type Hierarchy struct {
	cfg Config
	I   cache.Cache
	D   cache.Cache
	L2  cache.Cache

	// MemAccesses counts main-memory reads (L2 miss refills).
	MemAccesses uint64
	// MemWrites counts main-memory writes (L2 dirty writebacks).
	MemWrites uint64
	// L1Writebacks counts dirty L1 evictions written into the L2.
	L1Writebacks uint64
	// L1Refills counts L1 miss refills (block fills from L2/memory).
	L1Refills uint64

	// StreamHits counts data-side L1 misses served by the stream buffer.
	StreamHits uint64
	// Prefetches counts stream-buffer prefetch fills issued to the L2.
	Prefetches uint64

	// stream is the FIFO stream buffer (line addresses, oldest first),
	// nil if disabled. Its capacity is fixed at StreamBuffer entries, and
	// entries leave it by shifting the later ones down in place, so a
	// prefetch never allocates.
	stream []addr.Addr

	// below is the latency beyond the L1 of each way an L1 event is
	// served, indexed by the Event.Below Replay records.
	below [numServed]int

	// probe observes hierarchy-level events (L1 writebacks reaching the
	// L2); nil unless observability is attached.
	probe cache.Probe
}

// SetProbe attaches a probe to the hierarchy itself. The hierarchy emits
// ObserveWriteback once per dirty L1 victim written into the L2 — the
// event the L1's own ObserveEvict(dirty=true) only promises. Attach the
// same probe to an L1 (cache.AttachProbe) to correlate the two streams.
// Passing nil detaches.
func (h *Hierarchy) SetProbe(p cache.Probe) { h.probe = p }

// New builds a hierarchy around the given L1 instruction and data caches,
// with the Config's conventional set-associative L2.
func New(icache, dcache cache.Cache, cfg Config) (*Hierarchy, error) {
	l2, err := cache.NewSetAssoc(cfg.L2Size, cfg.L2Line, cfg.L2Ways, cache.LRU, nil)
	if err != nil {
		return nil, fmt.Errorf("hier: building L2: %w", err)
	}
	return NewWithL2(icache, dcache, l2, cfg)
}

// NewWithL2 builds a hierarchy around an arbitrary unified L2 (e.g. a
// B-Cache: the mechanism is not L1-specific). The three caches must be
// distinct: Replay runs each L1's stream on its own, before the L2 sees
// any of it.
func NewWithL2(icache, dcache, l2 cache.Cache, cfg Config) (*Hierarchy, error) {
	if icache == nil || dcache == nil || l2 == nil {
		return nil, fmt.Errorf("hier: nil cache")
	}
	if same(icache, dcache) || same(icache, l2) || same(dcache, l2) {
		return nil, fmt.Errorf("hier: one cache serves two levels or sides (I %s, D %s, L2 %s)",
			icache.Name(), dcache.Name(), l2.Name())
	}
	if cfg.L1Latency <= 0 || cfg.L2Latency <= 0 || cfg.MemLatency <= 0 {
		return nil, fmt.Errorf("hier: non-positive latency in %+v", cfg)
	}
	h := &Hierarchy{cfg: cfg, I: icache, D: dcache, L2: l2}
	if cfg.StreamBuffer > 0 {
		h.stream = make([]addr.Addr, 0, cfg.StreamBuffer)
	}
	h.below = [numServed]int{
		servedStream: 1,
		servedL2:     cfg.L2Latency,
		servedMemory: cfg.L2Latency + cfg.MemLatency,
	}
	return h, nil
}

// same reports whether a and b are one cache. Interface equality
// panics on a non-comparable dynamic type, so such a type is never
// taken for the same cache.
func same(a, b cache.Cache) bool {
	return reflect.TypeOf(a).Comparable() && a == b
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Fetch performs an instruction fetch of the line holding pc and returns
// its latency in cycles.
func (h *Hierarchy) Fetch(pc addr.Addr) int {
	return h.access(h.I, pc, false, false)
}

// Data performs a data access and returns its latency in cycles.
func (h *Hierarchy) Data(a addr.Addr, write bool) int {
	return h.access(h.D, a, write, h.cfg.StreamBuffer > 0)
}

// The ways the level below an L1 serves an L1 event, recorded in its
// Event.Below: not at all (a hit that took extra cycles or wrote a
// dirty victim back), from the stream buffer, from the L2, or from
// memory.
const (
	servedNone uint8 = iota
	servedStream
	servedL2
	servedMemory
	numServed
)

// access runs one L1 access and services misses and writebacks through
// the L2 and memory, returning the total latency.
func (h *Hierarchy) access(l1 cache.Cache, a addr.Addr, write, streamOK bool) int {
	r := l1.Access(a, write)
	served := h.serve(l1, a, !r.Hit, r.Evicted && r.EvictedDirty, r.EvictedAddr, streamOK)
	return h.cfg.L1Latency + r.ExtraLatency + h.below[served]
}

// serve is the part of an access below the L1: write a dirty victim
// back, then refill a miss from the stream buffer or the L2. It
// returns how the miss was served.
func (h *Hierarchy) serve(l1 cache.Cache, a addr.Addr, miss, dirty bool, victim addr.Addr, streamOK bool) uint8 {
	if dirty {
		// Write the dirty victim back into the L2 (off the critical path;
		// latency not charged to this access).
		h.L1Writebacks++
		if h.probe != nil {
			h.probe.ObserveWriteback()
		}
		h.l2Access(victim, true)
	}
	if !miss {
		return servedNone
	}
	h.L1Refills++
	if streamOK {
		line := addr.Align(a, uint64(l1.Geometry().LineBytes))
		next := line + addr.Addr(l1.Geometry().LineBytes)
		if h.streamHit(line) {
			// Buffer hit: the line was prefetched; one extra cycle to
			// move it in, and keep the stream running.
			h.StreamHits++
			h.streamFill(next)
			return servedStream
		}
		// Demand miss: service it first, then start the stream — the
		// prefetch rides behind the demand fill.
		served := h.l2Access(a, false)
		h.streamFill(next)
		return served
	}
	return h.l2Access(a, false)
}

// Replay serves one chunk of a core's accesses with exactly the effect
// of one Fetch per element of fetch and one Data per element of data in
// program order: fetchAt and dataAt give each access's position in the
// program (nondecreasing), and a fetch goes before a data access at the
// same position. The I- and D-cache each run their stream in one batch
// (cache.Replay) — neither cache's state depends on the other's, nor on
// timing — appending their events to fev and dev; the events then go
// to the L2 and the stream buffer merged into program order, so the L2
// sees the sequence Fetch and Data would give it, and each event's
// Below records how it was served (Latency). An access that is not an
// event took L1Latency cycles.
//
// A probe attached to the hierarchy or to an L1 would see the two L1s'
// events one stream after the other; a caller that needs per-access
// event order (Observed) calls Fetch and Data instead.
func (h *Hierarchy) Replay(fetch, data []cache.MemAccess, fetchAt, dataAt []uint16, fev, dev *[]cache.Event) {
	if len(fetchAt) != len(fetch) || len(dataAt) != len(data) {
		panic("hier: Replay positions do not match its streams")
	}
	ni, nd := len(*fev), len(*dev)
	cache.Replay(h.I, fetch, fev)
	cache.Replay(h.D, data, dev)
	ie, de := (*fev)[ni:], (*dev)[nd:]
	streamOK := h.cfg.StreamBuffer > 0
	for len(ie) > 0 || len(de) > 0 {
		if len(de) == 0 || len(ie) > 0 && fetchAt[ie[0].Index] <= dataAt[de[0].Index] {
			e := &ie[0]
			e.Below = h.serve(h.I, fetch[e.Index].Addr(), e.Miss, e.Dirty, e.Victim, false)
			ie = ie[1:]
			continue
		}
		e := &de[0]
		e.Below = h.serve(h.D, data[e.Index].Addr(), e.Miss, e.Dirty, e.Victim, streamOK)
		de = de[1:]
	}
}

// Latency returns the latency of the access behind e, an event Replay
// served: what Fetch or Data would have returned for it.
func (h *Hierarchy) Latency(e cache.Event) int {
	return h.cfg.L1Latency + int(e.Extra) + h.below[e.Below]
}

// Observed reports whether a probe is attached to the hierarchy or to
// either L1.
func (h *Hierarchy) Observed() bool {
	return h.probe != nil || cache.HasProbe(h.I) || cache.HasProbe(h.D)
}

// streamHit consumes a buffered line if present.
func (h *Hierarchy) streamHit(line addr.Addr) bool {
	for i, b := range h.stream {
		if b == line {
			h.stream = append(h.stream[:i], h.stream[i+1:]...)
			return true
		}
	}
	return false
}

// streamFill prefetches line into the buffer through the L2 (off the
// demand critical path), evicting FIFO when full.
func (h *Hierarchy) streamFill(line addr.Addr) {
	for _, b := range h.stream {
		if b == line {
			return
		}
	}
	h.Prefetches++
	h.l2Access(line, false)
	if len(h.stream) == h.cfg.StreamBuffer {
		h.stream = append(h.stream[:0], h.stream[1:]...)
	}
	h.stream = append(h.stream, line)
}

// l2Access touches the unified L2 and returns how it served a: from the
// L2 or from memory.
func (h *Hierarchy) l2Access(a addr.Addr, write bool) uint8 {
	r := h.L2.Access(a, write)
	if r.Evicted && r.EvictedDirty {
		h.MemWrites++
	}
	if !r.Hit {
		h.MemAccesses++
		return servedMemory
	}
	return servedL2
}

// Reset clears all caches and counters.
func (h *Hierarchy) Reset() {
	h.I.Reset()
	h.D.Reset()
	h.L2.Reset()
	h.MemAccesses = 0
	h.MemWrites = 0
	h.L1Writebacks = 0
	h.L1Refills = 0
	h.StreamHits = 0
	h.Prefetches = 0
	h.stream = h.stream[:0]
}
