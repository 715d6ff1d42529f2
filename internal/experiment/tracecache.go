package experiment

import (
	"sync"
	"time"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/obs/tracespan"
	"bcache/internal/trace"
	"bcache/internal/workload"
)

// The experiments replay the same few instruction streams against many
// cache configurations, and several experiments share benchmarks, so
// regenerating a stream per call site wastes most of the suite's time.
// traceCache memoizes three payload kinds, content-addressed by
// everything the payload depends on:
//
//   - record traces: the raw generator output for (profile name, seed,
//     instructions) — built only for the timed CPU model, which needs
//     every field of every instruction;
//   - data traces: the D-cache byte-address stream for (profile name,
//     seed, instructions), packed 8 bytes per access. Set and tag
//     derivation happen inside the caches, so the stream does not
//     depend on the line size: every line-size variant of an experiment
//     shares one entry;
//   - fetch traces: the I-cache stream for (profile name, seed,
//     instructions, line bytes) — consecutive same-line PCs collapse,
//     so this is the one stream a line-size sweep re-derives.
//
// Every payload lives only for its scheduler trace group: RunAll orders
// a whole campaign by trace, so each trace's consumers, whichever
// experiment declared them, run while it is resident, and the group's
// end drops every payload of its (profile, seed, n) — retireTrace. A
// worker subprocess retires a trace when it moves to another one
// (Plan.Execute) and at the end of a lease.
//
// A stream miss builds BOTH sides in one pass and caches the sibling
// too; the sibling's key joins the miss's singleflight. If the group
// also runs the CPU model (runUnits marks it with expectRecords), or
// the record trace is already resident or being built, the streams are
// extracted from the record trace; otherwise the generator runs
// straight into the two streams. So each trace runs the generator once
// per group, and a record trace is never built just to derive streams.
//
// Entries are built once under a singleflight channel — duplicate
// requesters block on the first builder. The byte budget bounds
// cache-RESIDENT bytes, record traces included; past it the least
// recently used idle stream is dropped (a later request in its group
// rebuilds it). Record traces are never evicted, only retired. Eviction
// runs before a build's payloads become visible, so the resident
// high-water mark (PeakBytes) stays at or below the budget whenever
// enough completed streams exist to evict. Dropped traces stay usable
// by anyone already holding the pointer; payloads are immutable after
// build, and units replaying a stream hold their own pointer for the
// duration, so transient process RSS can exceed the budget by the
// working set of in-flight units.

// defaultTraceBytes bounds the shared cache when Opts does not say
// otherwise. At DefaultOpts one trace group holds its record trace
// (~48 MB), data stream (~4.4 MB) and 32-byte-line fetch stream
// (~2.5 MB); 232 MiB holds four such groups, one per concurrent worker
// on a 4-CPU machine, before any stream is dropped.
const defaultTraceBytes = 232 << 20

// payloadKind discriminates the three cached stream representations.
type payloadKind uint8

const (
	kindData    payloadKind = iota // packed D-cache address streams
	kindFetch                      // I-cache fetch streams, per line size
	kindRecords                    // raw generator records
)

// traceKey identifies one cached payload.
type traceKey struct {
	kind         payloadKind
	name         string
	seed         uint64
	instructions uint64
	// lineBytes is 0 for record and data traces: neither the generator
	// nor the D-side byte-address stream depends on the cache line size.
	lineBytes int
}

// trace returns the record-trace key of k's (profile, seed, n): the
// trace group every payload of it belongs to.
func (k traceKey) trace() traceKey {
	return traceKey{kind: kindRecords, name: k.name, seed: k.seed, instructions: k.instructions}
}

// payload is one cached value: a dataTrace, fetchTrace, or recordTrace.
// Implementations are immutable after build.
type payload interface {
	sizeBytes() int64
}

// traceEntry is one in-memory slot. ready is closed when val/err are
// set.
type traceEntry struct {
	ready   chan struct{}
	val     payload
	err     error
	size    int64
	lastUse uint64
}

// built reports whether the entry's build has finished and succeeded.
func (e *traceEntry) built() bool {
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// TraceCacheCounters reports shared trace-cache effectiveness.
type TraceCacheCounters struct {
	// Hits are in-memory lookups; Misses are entries built from scratch
	// (the sibling stream cached alongside a build is not counted under
	// either). Reloads is always 0: nothing is spilled to disk any more,
	// and the field stays for the benchmark harness that reports it.
	Hits    uint64
	Misses  uint64
	Reloads uint64
	// Generations counts workload-generator runs: every record-trace
	// build and every stream miss that had no record trace to extract
	// from.
	Generations uint64
	// Evictions counts streams dropped under budget pressure. Spills is
	// always 0, like Reloads.
	Evictions uint64
	Spills    uint64
	// Bytes is resident; PeakBytes is the resident high-water mark.
	// SpillBytes is always 0, like Reloads.
	Bytes      int64
	SpillBytes int64
	PeakBytes  int64
}

type traceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry // guarded by mu
	// records holds the record-trace keys of the trace groups whose
	// units run the CPU model (expectRecords).
	records map[traceKey]bool // guarded by mu
	used    int64             // guarded by mu
	ticks   uint64            // guarded by mu
	c       TraceCacheCounters
}

// sharedTraces is the process-wide cache; all experiments go through it.
var sharedTraces = newTraceCache()

func newTraceCache() *traceCache {
	return &traceCache{entries: map[traceKey]*traceEntry{}, records: map[traceKey]bool{}}
}

// ResetTraceCache drops all memoized traces and counters (test hook).
func ResetTraceCache() {
	tc := sharedTraces
	tc.mu.Lock()
	tc.entries = map[traceKey]*traceEntry{}
	tc.records = map[traceKey]bool{}
	tc.used = 0
	tc.ticks = 0
	tc.c = TraceCacheCounters{}
	tc.mu.Unlock()
}

// CleanupTraceSpill does nothing: the trace cache no longer writes
// spill files. It stays for the benchmark harness, which still calls
// it.
func CleanupTraceSpill() {}

// TraceCacheStats returns a snapshot of the shared cache counters.
func TraceCacheStats() TraceCacheCounters {
	tc := sharedTraces
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c := tc.c
	c.Bytes = tc.used
	return c
}

// ---- data traces ----

// dataTrace is the packed D-cache access stream for one (profile, seed,
// n). Immutable after build.
type dataTrace struct {
	name string
	accs []memAcc
}

func (dt *dataTrace) sizeBytes() int64 { return int64(cap(dt.accs)) * 8 }

// ---- fetch traces ----

// fetchTrace is the I-cache access stream for one (profile, seed, n,
// line size): one PC per executed basic-block line. Immutable after
// build.
type fetchTrace struct {
	name string
	pcs  []addr.Addr
}

func (ft *fetchTrace) sizeBytes() int64 { return int64(cap(ft.pcs)) * 8 }

// ---- record traces ----

// recordTrace is the raw generator output for one (profile, seed, n):
// the stream the timed CPU model consumes and address streams are
// extracted from. Immutable after build; resident only while its trace
// group runs.
type recordTrace struct {
	name string
	recs []trace.Record
}

// recordBytes is the in-memory stride of one trace.Record (two 8-byte
// addresses plus five bytes, padded).
const recordBytes = 24

func (rt *recordTrace) sizeBytes() int64 { return int64(cap(rt.recs)) * recordBytes }

// generateRecords runs the workload generator for exactly n records —
// the same count materialize and the timed CPU model consume, so a
// cached record trace is bit-identical input for both.
func generateRecords(p *workload.Profile, n uint64) (*recordTrace, error) {
	g, err := workload.New(p)
	if err != nil {
		return nil, err
	}
	rt := &recordTrace{name: p.Name, recs: make([]trace.Record, n)}
	g.Fill(rt.recs)
	return rt, nil
}

// materializeChunk is how many records materialize generates at a time:
// 96 KiB of records, small enough to stay in cache between the
// generator writing them and the two extractions reading them.
const materializeChunk = 4096

// materialize runs the generator for n instructions straight into both
// address streams, a chunk of records at a time, without keeping the
// records. It is the oracle extractData/extractFetch are held to.
func materialize(p *workload.Profile, n uint64, lineBytes int) (*dataTrace, *fetchTrace, error) {
	g, err := workload.New(p)
	if err != nil {
		return nil, nil, err
	}
	var (
		accs  = make([]memAcc, 0, dataCapHint(n))
		pcs   = make([]addr.Addr, 0, fetchCapHint(n))
		lines = newFetchLines(lineBytes)
		buf   = make([]trace.Record, min(n, materializeChunk))
	)
	for left := n; left > 0; {
		chunk := buf[:min(left, uint64(len(buf)))]
		g.Fill(chunk)
		accs = appendData(accs, chunk)
		pcs = lines.appendPCs(pcs, chunk)
		left -= uint64(len(chunk))
	}
	return &dataTrace{name: p.Name, accs: clip(accs)}, &fetchTrace{name: p.Name, pcs: clip(pcs)}, nil
}

// dataCapHint and fetchCapHint size materialize's streams before they
// are built: 2/5 of the instructions covers the most memory-heavy
// profile's data stream (0.34–0.40 for mcf, art, equake, lucas, mgrid,
// swim), and 1/6 covers every profile's fetch stream at 32-byte lines
// (0.136–0.158). They only avoid regrowth; clip makes the published
// size exact.
func dataCapHint(n uint64) uint64  { return n * 2 / 5 }
func fetchCapHint(n uint64) uint64 { return n / 6 }

// clip returns s with len == cap, copying it when it has spare
// capacity: a published stream holds exactly the heap sizeBytes
// charges to the trace-cache budget.
func clip[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// appendData appends the D-cache accesses among recs to accs.
func appendData(accs []memAcc, recs []trace.Record) []memAcc {
	for i := range recs {
		if rec := &recs[i]; rec.Kind.IsMem() {
			accs = append(accs, cache.NewMemAccess(rec.Mem, rec.Kind == trace.Store))
		}
	}
	return accs
}

// fetchLines collapses consecutive same-line PCs into one I-cache
// access, matching the CPU model's fetch. It carries the current line
// across calls, so a stream may be extracted chunk by chunk.
type fetchLines struct {
	mask, cur addr.Addr
}

func newFetchLines(lineBytes int) fetchLines {
	return fetchLines{mask: ^addr.Addr(uint64(lineBytes) - 1), cur: ^addr.Addr(0)}
}

// enters reports whether pc starts a new fetch line, and moves to it.
func (f *fetchLines) enters(pc addr.Addr) bool {
	line := pc & f.mask
	if line == f.cur {
		return false
	}
	f.cur = line
	return true
}

// appendPCs appends the line-entering PCs among recs to pcs.
func (f *fetchLines) appendPCs(pcs []addr.Addr, recs []trace.Record) []addr.Addr {
	for i := range recs {
		if pc := recs[i].PC; f.enters(pc) {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// extractData derives the D-cache stream from a record trace with
// materialize's own extraction, and TestExtractMatchesMaterialize holds
// the two stream sources equal. The records are resident, so a counting
// pass sizes the stream exactly and the build leaves no garbage.
func extractData(rt *recordTrace) *dataTrace {
	n := 0
	for i := range rt.recs {
		if rt.recs[i].Kind.IsMem() {
			n++
		}
	}
	return &dataTrace{name: rt.name, accs: appendData(make([]memAcc, 0, n), rt.recs)}
}

// extractFetch derives the I-cache stream from a record trace at one
// line size — materialize's fetch collapse, sized by a counting pass
// like extractData.
func extractFetch(rt *recordTrace, lineBytes int) *fetchTrace {
	count := newFetchLines(lineBytes)
	n := 0
	for i := range rt.recs {
		if count.enters(rt.recs[i].PC) {
			n++
		}
	}
	lines := newFetchLines(lineBytes)
	return &fetchTrace{name: rt.name, pcs: lines.appendPCs(make([]addr.Addr, 0, n), rt.recs)}
}

// ---- the cache ----

// get returns the payload for key, building it at most once per key.
// build returns key's payload followed by one payload per sibling key:
// the other stream of the same generator pass. Siblings not yet cached
// join key's singleflight, so a concurrent request for one waits for
// this build instead of running the generator a second time.
func (tc *traceCache) get(key traceKey, sibs []traceKey, budget int64,
	build func() ([]payload, error)) (payload, error) {
	tel := CurrentTelemetry()
	tc.mu.Lock()
	if e, ok := tc.entries[key]; ok {
		tc.touchLocked(e)
		tc.c.Hits++
		used := tc.used
		tc.mu.Unlock()
		<-e.ready
		tel.Emit(tracespan.Span{Kind: tracespan.KindTraceHit, Name: key.name,
			Worker: tracespan.SharedWorker, Unit: -1, Bytes: used})
		return e.val, e.err
	}
	keys := append([]traceKey{key}, sibs...)
	claimed := make([]*traceEntry, len(keys))
	ready := make(chan struct{})
	for i, k := range keys {
		if i > 0 && tc.entries[k] != nil {
			continue
		}
		e := &traceEntry{ready: ready}
		tc.touchLocked(e)
		tc.entries[k] = e
		claimed[i] = e
	}
	tc.mu.Unlock()

	var buildStart time.Time
	if tel != nil {
		buildStart = tel.now()
	}
	vals, err := build()

	// Publish and account under one lock hold, so no reader sees a
	// built entry whose bytes are not counted, or the cache over budget
	// before eviction made room.
	tc.mu.Lock()
	for i, e := range claimed {
		switch {
		case e == nil:
		case err != nil:
			// Failures are not cached; a later call may retry.
			e.err = err
			delete(tc.entries, keys[i])
		default:
			e.val, e.size = vals[i], vals[i].sizeBytes()
			tc.used += e.size
		}
	}
	close(ready)
	if err == nil {
		tc.c.Misses++
		tc.evictLocked(key, budget)
		tc.c.PeakBytes = max(tc.c.PeakBytes, tc.used)
	}
	used := tc.used
	tc.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if tel != nil {
		tel.Emit(tracespan.Span{Kind: tracespan.KindTraceBuild, Name: key.name,
			Worker: tracespan.SharedWorker, Unit: -1, StartUnixNano: buildStart.UnixNano(),
			DurNanos: int64(tel.now().Sub(buildStart)), Bytes: used})
	}
	return vals[0], nil
}

// touchLocked marks e as the most recently used entry.
func (tc *traceCache) touchLocked(e *traceEntry) {
	tc.ticks++
	e.lastUse = tc.ticks
}

// evictLocked drops the least recently used idle streams other than
// keep until used fits budget. An entry still building is not idle, and
// record traces are never chosen: only their group's end retires them.
// The entry count is small — a few per trace group in flight — so a
// linear minimum scan is fine.
func (tc *traceCache) evictLocked(keep traceKey, budget int64) {
	for tc.used > budget {
		var victim traceKey
		var ve *traceEntry
		for k, e := range tc.entries {
			if k == keep || k.kind == kindRecords || !e.built() || (ve != nil && e.lastUse >= ve.lastUse) {
				continue
			}
			victim, ve = k, e
		}
		if ve == nil {
			return
		}
		tc.used -= ve.size
		delete(tc.entries, victim)
		tc.c.Evictions++
	}
}

// hasRecords reports whether a stream build of group should extract
// from the record trace: the group runs the CPU model, or its record
// trace is resident or being built.
func (tc *traceCache) hasRecords(group traceKey) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.records[group] || tc.entries[group] != nil
}

// expectRecords marks group as one whose units run the CPU model, so
// its first stream miss builds the record trace and extracts from it
// instead of running the generator a second time.
func (tc *traceCache) expectRecords(group traceKey) {
	tc.mu.Lock()
	tc.records[group] = true
	tc.mu.Unlock()
}

// retireTrace ends a trace group: it drops every built payload of
// group's (profile, seed, n) — the record trace, the data stream and
// the fetch streams at every line size — and its expectRecords mark. A
// build still in flight (a unit abandoned past its deadline) is left
// to finish.
func (tc *traceCache) retireTrace(group traceKey) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	delete(tc.records, group)
	for k, e := range tc.entries {
		if k.trace() == group && e.built() {
			delete(tc.entries, k)
			tc.used -= e.size
		}
	}
}

// traceBudget resolves the Opts knob: 0 means the default budget,
// negative disables memoization.
func (o Opts) traceBudget() int64 {
	if o.TraceBytes == 0 {
		return defaultTraceBytes
	}
	if o.TraceBytes < 0 {
		return 0
	}
	return o.TraceBytes
}

// countGeneration records one workload-generator run.
func (tc *traceCache) countGeneration() {
	tc.mu.Lock()
	tc.c.Generations++
	tc.mu.Unlock()
}

// cachedRecords returns the generator output for (p, seed, n), running
// the generator once per trace group. Only the timed CPU model needs
// whole records; stream consumers go through cachedData/cachedFetch.
// Call it only from a unit's exec, whose group end retires the entry.
func cachedRecords(opts Opts, p *workload.Profile) (*recordTrace, error) {
	budget := opts.traceBudget()
	if budget <= 0 {
		sharedTraces.countGeneration()
		return generateRecords(p, opts.Instructions)
	}
	val, err := sharedTraces.get(recordTraceKey(opts, p), nil, budget,
		func() ([]payload, error) {
			sharedTraces.countGeneration()
			rt, err := generateRecords(p, opts.Instructions)
			return []payload{rt}, err
		})
	if err != nil {
		return nil, err
	}
	return val.(*recordTrace), nil
}

// recordTraceKey/dataTraceKey/fetchTraceKey name the three payloads of
// one (profile, seed, n) — only the fetch key carries the line size.
func recordTraceKey(opts Opts, p *workload.Profile) traceKey {
	return traceKey{kind: kindRecords, name: p.Name, seed: p.Seed, instructions: opts.Instructions}
}

func dataTraceKey(opts Opts, p *workload.Profile) traceKey {
	return traceKey{kind: kindData, name: p.Name, seed: p.Seed, instructions: opts.Instructions}
}

func fetchTraceKey(opts Opts, p *workload.Profile) traceKey {
	return traceKey{kind: kindFetch, name: p.Name, seed: p.Seed,
		instructions: opts.Instructions, lineBytes: opts.LineBytes}
}

// buildStreams produces both address streams of (p, seed, n) at
// opts.LineBytes for a stream miss: extracted from the record trace
// when the group has one (hasRecords), otherwise straight from the
// generator, so a campaign that only replays streams never allocates a
// record trace.
func buildStreams(opts Opts, p *workload.Profile) (*dataTrace, *fetchTrace, error) {
	if sharedTraces.hasRecords(recordTraceKey(opts, p)) {
		rt, err := cachedRecords(opts, p)
		if err != nil {
			return nil, nil, err
		}
		return extractData(rt), extractFetch(rt, opts.LineBytes), nil
	}
	return generateStreams(opts, p)
}

// generateStreams runs the generator straight into both streams.
func generateStreams(opts Opts, p *workload.Profile) (*dataTrace, *fetchTrace, error) {
	sharedTraces.countGeneration()
	return materialize(p, opts.Instructions, opts.LineBytes)
}

// cachedData is the D-side call-site helper: every data-cache
// experiment obtains its stream here instead of calling materialize
// directly. A miss builds both streams (buildStreams) and caches the
// opts.LineBytes fetch stream as its sibling, so an I-side unit of the
// same group at the same line size hits without another build.
func cachedData(opts Opts, p *workload.Profile) (*dataTrace, error) {
	budget := opts.traceBudget()
	if budget <= 0 {
		dt, _, err := generateStreams(opts, p)
		return dt, err
	}
	val, err := sharedTraces.get(dataTraceKey(opts, p), []traceKey{fetchTraceKey(opts, p)}, budget,
		func() ([]payload, error) {
			dt, ft, err := buildStreams(opts, p)
			return []payload{dt, ft}, err
		})
	if err != nil {
		return nil, err
	}
	return val.(*dataTrace), nil
}

// cachedFetch is cachedData's I-side twin; a miss caches the data
// stream as the sibling.
func cachedFetch(opts Opts, p *workload.Profile) (*fetchTrace, error) {
	budget := opts.traceBudget()
	if budget <= 0 {
		_, ft, err := generateStreams(opts, p)
		return ft, err
	}
	val, err := sharedTraces.get(fetchTraceKey(opts, p), []traceKey{dataTraceKey(opts, p)}, budget,
		func() ([]payload, error) {
			dt, ft, err := buildStreams(opts, p)
			return []payload{ft, dt}, err
		})
	if err != nil {
		return nil, err
	}
	return val.(*fetchTrace), nil
}
