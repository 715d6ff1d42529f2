package experiment

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
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
// A stream miss builds BOTH sides and publishes the sibling as a
// byproduct (putIfAbsent). If the record trace is resident it extracts
// the streams from it; otherwise the generator runs straight into the
// two streams. So a record trace — 48 MB at DefaultOpts, 24 bytes per
// instruction against the streams' ~4.7, and nearly as expensive to
// decode from a spill file as to regenerate — is never built, spilled
// or reloaded just to derive streams.
//
// Entries are built once under a singleflight channel — duplicate
// requesters block on the first builder — and when the byte budget is
// exceeded, entries are spilled to checksummed on-disk V2 trace files
// instead of being discarded: a later request decodes the spill file
// (verifying the build-time FNV checksum; a corrupt file is deleted and
// the entry rebuilt) rather than re-running the generator. Record
// traces are evicted before stream payloads regardless of recency —
// they are the cheapest tier to lose (see evictLocked). Spilled-but-
// reloaded entries keep their file, so re-evicting them costs nothing.
// Evicted traces stay usable by anyone already holding the pointer;
// payloads are immutable after build.
//
// The budget bounds cache-RESIDENT bytes, and eviction makes room
// BEFORE a new entry is accounted, so the resident high-water mark
// (PeakBytes) stays at or below the budget whenever enough completed,
// unpinned entries exist to evict. A record trace is pinned while a
// CPU-model unit runs on it (cachedRecords), because concurrent trace
// groups each hold one and evicting it mid-group only forces a rebuild.
// Units replaying a stream hold their own pointer for the duration, so
// transient process RSS can still exceed the budget by the working set
// of in-flight units.

// defaultTraceBytes bounds the shared cache when Opts does not say
// otherwise. At DefaultOpts the full suite's steady working set is
// every profile's data stream (~4.4 MB each) plus its 32-byte-line
// fetch stream (~2.5 MB each) plus one resident record trace (~48 MB);
// 232 MiB holds all of that with a little headroom. Each further worker
// running a CPU-model trace group pins one more record trace, which
// pushes the least recently used streams out to spill files.
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

// String is the stable form used for spill file naming and the sorted
// SpilledTraces listing.
func (k traceKey) String() string {
	return fmt.Sprintf("kind=%d|%s|seed=%d|n=%d|line=%d",
		k.kind, k.name, k.seed, k.instructions, k.lineBytes)
}

// payload is one cached value: a dataTrace, fetchTrace, or recordTrace.
// Implementations are immutable after build.
type payload interface {
	sizeBytes() int64
	checksum() uint64
	// spillRecords writes the payload as a V2 record stream; the
	// matching loader reverses it exactly (verified by checksum).
	spillRecords(w *trace.CompressedWriter) error
}

// traceEntry is one in-memory slot. ready is closed when val/err are
// set. The content checksum is not taken here: most entries live and
// die resident, so the spill writer computes it only when an eviction
// actually persists the payload.
type traceEntry struct {
	ready   chan struct{}
	val     payload
	err     error
	size    int64
	lastUse uint64
	// pins counts callers holding the payload across a long computation
	// (see cachedRecords). A pinned entry is not evicted: that would free
	// nothing, and the next request would rebuild or reload a second copy.
	pins int
}

// spillSlot is one on-disk entry of the spill index. verified is set
// after the first reload proves the file reproduces the build-time
// checksum; later reloads of the same slot skip the verify pass — the
// file is process-private and immutable once written, so one successful
// round-trip establishes it for the slot's lifetime.
type spillSlot struct {
	path     string
	sum      uint64
	size     int64 // file bytes, compressed
	verified bool
}

// TraceCacheCounters reports shared trace-cache effectiveness.
type TraceCacheCounters struct {
	// Hits are in-memory lookups; Reloads are lookups served by
	// decoding a spill file; Misses are entries built from scratch
	// (byproduct publications — the sibling stream extracted during a
	// build — are not counted under any of these).
	Hits    uint64
	Misses  uint64
	Reloads uint64
	// Generations counts workload-generator runs: every record-trace
	// build and every stream miss that found no resident record trace
	// to extract from.
	Generations uint64
	// Evictions counts entries dropped from memory under budget
	// pressure; Spills counts the subset persisted to disk (an entry
	// whose spill file already exists is not rewritten).
	Evictions uint64
	Spills    uint64
	// Rebuilds counts spill files discarded because their content no
	// longer matched the build-time checksum.
	Rebuilds uint64
	// Bytes is resident; SpillBytes is on disk; PeakBytes is the
	// resident high-water mark.
	Bytes      int64
	SpillBytes int64
	PeakBytes  int64
}

type traceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry // guarded by mu
	spilled map[traceKey]*spillSlot  // guarded by mu
	dir     string
	dirErr  error
	used    int64  // guarded by mu
	ticks   uint64 // guarded by mu
	c       TraceCacheCounters
}

// sharedTraces is the process-wide cache; all experiments go through it.
var sharedTraces = newTraceCache()

func newTraceCache() *traceCache {
	return &traceCache{
		entries: map[traceKey]*traceEntry{},
		spilled: map[traceKey]*spillSlot{},
	}
}

// ResetTraceCache drops all memoized traces, counters, and spill files
// (test hook; also the CLI exit cleanup via CleanupTraceSpill).
func ResetTraceCache() {
	tc := sharedTraces
	tc.mu.Lock()
	tc.entries = map[traceKey]*traceEntry{}
	tc.used = 0
	tc.ticks = 0
	tc.c = TraceCacheCounters{}
	tc.mu.Unlock()
	CleanupTraceSpill()
}

// CleanupTraceSpill removes the spill directory and forgets every
// spilled entry. CLIs defer this so temp files never outlive the
// process; the in-memory cache keeps working (evictions simply start a
// fresh spill directory).
func CleanupTraceSpill() {
	tc := sharedTraces
	tc.mu.Lock()
	dir := tc.dir
	tc.dir, tc.dirErr = "", nil
	tc.spilled = map[traceKey]*spillSlot{}
	tc.c.SpillBytes = 0
	tc.mu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// TraceCacheStats returns a snapshot of the shared cache counters.
func TraceCacheStats() TraceCacheCounters {
	tc := sharedTraces
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c := tc.c
	c.Bytes = tc.used
	return c
}

// SpilledTraces lists the keys currently held on disk, sorted so the
// emission order is deterministic regardless of map iteration.
func SpilledTraces() []string {
	tc := sharedTraces
	tc.mu.Lock()
	defer tc.mu.Unlock()
	keys := make([]string, 0, len(tc.spilled))
	for k := range tc.spilled {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	return keys
}

// fnvWord folds one 64-bit word into the checksum state: xor, rotate,
// multiply by the FNV prime. A word-at-a-time variant of FNV-1a — the
// canonical byte fold costs 8 multiplies per word, which dominated
// spill verification at suite scale. The rotation carries high-byte
// bit flips into the low bytes that the upward-only multiply would
// otherwise never touch. The sums are process-private (computed when a
// payload spills, checked on its first reload), so the exact mixing
// function is free to change between versions.
func fnvWord(h, v uint64) uint64 {
	const prime = 1099511628211
	return bits.RotateLeft64(h^v, 27) * prime
}

const fnvOffset = 14695981039346656037

// ---- data traces ----

// dataTrace is the packed D-cache access stream for one (profile, seed,
// n). Immutable after build.
type dataTrace struct {
	name string
	accs []memAcc
}

func (dt *dataTrace) sizeBytes() int64 { return int64(cap(dt.accs)) * 8 }

// checksum folds the stream through FNV-1a. memAcc already packs
// addr<<1|write into one word, so the fold consumes it directly.
func (dt *dataTrace) checksum() uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(len(dt.accs)))
	for _, m := range dt.accs {
		h = fnvWord(h, uint64(m))
	}
	return h
}

func (dt *dataTrace) spillRecords(w *trace.CompressedWriter) error {
	for _, m := range dt.accs {
		k := trace.Load
		if m.Write() {
			k = trace.Store
		}
		if err := w.Write(trace.Record{Mem: m.Addr(), Kind: k, Lat: 1}); err != nil {
			return err
		}
	}
	return nil
}

func loadDataTrace(r *trace.CompressedReader, name string) (*dataTrace, error) {
	dt := &dataTrace{name: name, accs: make([]memAcc, 0, r.Remaining())}
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		dt.accs = append(dt.accs, cache.NewMemAccess(rec.Mem, rec.Kind == trace.Store))
	}
	return dt, r.Err()
}

// ---- fetch traces ----

// fetchTrace is the I-cache access stream for one (profile, seed, n,
// line size): one PC per executed basic-block line. Immutable after
// build.
type fetchTrace struct {
	name string
	pcs  []addr.Addr
}

func (ft *fetchTrace) sizeBytes() int64 { return int64(cap(ft.pcs)) * 8 }

func (ft *fetchTrace) checksum() uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(len(ft.pcs)))
	for _, pc := range ft.pcs {
		h = fnvWord(h, uint64(pc))
	}
	return h
}

func (ft *fetchTrace) spillRecords(w *trace.CompressedWriter) error {
	for _, pc := range ft.pcs {
		if err := w.Write(trace.Record{PC: pc, Kind: trace.Int, Lat: 1}); err != nil {
			return err
		}
	}
	return nil
}

func loadFetchTrace(r *trace.CompressedReader, name string) (*fetchTrace, error) {
	ft := &fetchTrace{name: name, pcs: make([]addr.Addr, 0, r.Remaining())}
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		ft.pcs = append(ft.pcs, rec.PC)
	}
	return ft, r.Err()
}

// ---- record traces ----

// recordTrace is the raw generator output for one (profile, seed, n):
// the stream the timed CPU model consumes and address streams are
// extracted from. Immutable after build.
type recordTrace struct {
	name string
	recs []trace.Record
}

// recordBytes is the in-memory stride of one trace.Record (two 8-byte
// addresses plus five bytes, padded).
const recordBytes = 24

func (rt *recordTrace) sizeBytes() int64 { return int64(cap(rt.recs)) * recordBytes }

func (rt *recordTrace) checksum() uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(len(rt.recs)))
	for _, r := range rt.recs {
		h = fnvWord(h, uint64(r.PC))
		h = fnvWord(h, uint64(r.Mem))
		h = fnvWord(h, uint64(r.Kind)|uint64(r.Src1)<<8|uint64(r.Src2)<<16|
			uint64(r.Dst)<<24|uint64(r.Lat)<<32)
	}
	return h
}

func (rt *recordTrace) spillRecords(w *trace.CompressedWriter) error {
	for _, r := range rt.recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return nil
}

func loadRecordTrace(r *trace.CompressedReader, name string) (*recordTrace, error) {
	rt := &recordTrace{name: name, recs: make([]trace.Record, 0, r.Remaining())}
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		rt.recs = append(rt.recs, rec)
	}
	return rt, r.Err()
}

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
// Lookup order: memory (free), spill file (decode, plus a checksum
// verify on the slot's first reload), build. A corrupt spill file is
// deleted, counted under Rebuilds, and the entry rebuilt from scratch.
// With pin set, a successful get pins the entry until unpin.
func (tc *traceCache) get(key traceKey, budget int64, pin bool,
	build func() (payload, error),
	load func(*trace.CompressedReader) (payload, error)) (payload, error) {
	tel := CurrentTelemetry()
	tc.mu.Lock()
	if e, ok := tc.entries[key]; ok {
		tc.ticks++
		e.lastUse = tc.ticks
		tc.c.Hits++
		if pin {
			e.pins++
		}
		used := tc.used
		tc.mu.Unlock()
		<-e.ready
		tel.traceCacheEvent(tracespan.KindTraceHit, key.name, time.Time{}, 0, used)
		return e.val, e.err
	}
	e := &traceEntry{ready: make(chan struct{})}
	if pin {
		e.pins = 1
	}
	tc.ticks++
	e.lastUse = tc.ticks
	tc.entries[key] = e
	slot := tc.spilled[key]
	verify := slot != nil && !slot.verified
	tc.mu.Unlock()

	var buildStart time.Time
	if tel != nil {
		buildStart = tel.now()
	}
	var val payload
	var err error
	kind := tracespan.KindTraceReload
	if slot != nil {
		val, err = reloadSpill(slot, load, verify)
		if err != nil {
			// Corrupt or unreadable: delete the file so the next
			// eviction rewrites it, and fall through to a rebuild.
			os.Remove(slot.path)
			tc.mu.Lock()
			if tc.spilled[key] == slot {
				delete(tc.spilled, key)
				tc.c.SpillBytes -= slot.size
			}
			tc.c.Rebuilds++
			used := tc.used
			tc.mu.Unlock()
			tel.traceCacheEvent(tracespan.KindTraceRebuild, key.name, time.Time{}, 0, used)
			slot = nil
		}
	}
	if slot == nil {
		val, err = build()
		kind = tracespan.KindTraceBuild
	}
	e.val, e.err = val, err
	if err == nil {
		e.size = val.sizeBytes()
	}
	close(e.ready)

	tc.mu.Lock()
	var victims []spillJob
	if err != nil {
		// Failures are not cached; a later call may retry.
		delete(tc.entries, key)
	} else {
		if slot == nil {
			tc.c.Misses++
		} else {
			tc.c.Reloads++
			if verify {
				slot.verified = true
			}
		}
		// Make room BEFORE accounting the new entry, so the resident
		// high-water mark stays within budget whenever eviction can
		// keep up.
		victims = tc.evictLocked(key, budget-e.size)
		tc.used += e.size
		if tc.used > tc.c.PeakBytes {
			tc.c.PeakBytes = tc.used
		}
	}
	used := tc.used
	tc.mu.Unlock()
	tc.spill(victims, tel)
	if tel != nil && err == nil {
		tel.traceCacheEvent(kind, key.name, buildStart, tel.now().Sub(buildStart), used)
	}
	return val, err
}

// unpin releases a pin that get took on key's entry holding val. An
// entry dropped or replaced since (ResetTraceCache) is left alone.
func (tc *traceCache) unpin(key traceKey, val payload) {
	tc.mu.Lock()
	if e := tc.entries[key]; e != nil && e.val == val && e.pins > 0 {
		e.pins--
	}
	tc.mu.Unlock()
}

// resident returns key's payload when it is built and in memory,
// counting a hit. It never waits for an in-flight build, reloads a
// spill file or builds, so it returns false in every other case.
func (tc *traceCache) resident(key traceKey) (payload, bool) {
	tc.mu.Lock()
	e, ok := tc.entries[key]
	if ok {
		select {
		case <-e.ready:
			ok = e.err == nil
		default:
			ok = false
		}
	}
	if !ok {
		tc.mu.Unlock()
		return nil, false
	}
	tc.ticks++
	e.lastUse = tc.ticks
	tc.c.Hits++
	used := tc.used
	tc.mu.Unlock()
	CurrentTelemetry().traceCacheEvent(tracespan.KindTraceHit, key.name, time.Time{}, 0, used)
	return e.val, true
}

// putIfAbsent publishes a byproduct payload — the sibling stream built
// alongside another entry from the same generator run or resident
// record trace. No singleflight: if the key is already present in
// memory, in flight, or on disk, the byproduct is simply dropped. No
// counter moves; the publication is an accident of build order, not a
// lookup.
func (tc *traceCache) putIfAbsent(key traceKey, val payload, budget int64) {
	e := &traceEntry{
		ready: make(chan struct{}),
		val:   val,
		size:  val.sizeBytes(),
	}
	close(e.ready)
	tc.mu.Lock()
	if tc.entries[key] != nil || tc.spilled[key] != nil {
		tc.mu.Unlock()
		return
	}
	tc.ticks++
	e.lastUse = tc.ticks
	tc.entries[key] = e
	victims := tc.evictLocked(key, budget-e.size)
	tc.used += e.size
	if tc.used > tc.c.PeakBytes {
		tc.c.PeakBytes = tc.used
	}
	tc.mu.Unlock()
	tc.spill(victims, CurrentTelemetry())
}

// spillJob carries one evicted entry out of the lock for writing.
type spillJob struct {
	key traceKey
	val payload
}

// evictLocked drops completed entries (never keep, never ones still
// building or pinned) until used fits budget, returning the ones that
// need a spill file written. Record traces are chosen before stream payloads
// regardless of recency: decoding a spilled record trace costs about as
// much as regenerating it, so it is the cheapest tier to lose, and the
// much smaller extracted streams — the entries the replay loops
// actually reuse — stay resident. Within a tier the choice is LRU. The
// entry count is small — a few per (benchmark, seed) — so a linear
// minimum scan is fine.
func (tc *traceCache) evictLocked(keep traceKey, budget int64) []spillJob {
	var jobs []spillJob
	for tc.used > budget {
		var victim traceKey
		var oldest uint64
		found, foundRecords := false, false
		for k, e := range tc.entries {
			if k == keep || e.pins > 0 {
				continue
			}
			select {
			case <-e.ready:
			default:
				continue // still building; owner will account for it
			}
			isRecords := k.kind == kindRecords
			switch {
			case !found, isRecords && !foundRecords:
				// First candidate, or first record trace seen.
			case isRecords == foundRecords && e.lastUse < oldest:
				// Same tier, older.
			default:
				continue
			}
			victim, oldest, found, foundRecords = k, e.lastUse, true, isRecords
		}
		if !found {
			return jobs
		}
		e := tc.entries[victim]
		tc.used -= e.size
		delete(tc.entries, victim)
		tc.c.Evictions++
		if tc.spilled[victim] == nil {
			jobs = append(jobs, spillJob{key: victim, val: e.val})
		}
	}
	return jobs
}

// spillDir lazily creates the process's spill directory.
func (tc *traceCache) spillDir() (string, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.dir == "" && tc.dirErr == nil {
		tc.dir, tc.dirErr = os.MkdirTemp("", "bcache-tracespill-")
	}
	return tc.dir, tc.dirErr
}

// spillName derives a stable file name from the key's string form.
func spillName(k traceKey) string {
	return fmt.Sprintf("t%016x.bct", stringFNV(k.String()))
}

func stringFNV(s string) uint64 {
	const prime = 1099511628211
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}

// spill writes evicted entries to disk, outside the cache lock — the
// write races only against a concurrent rebuild of the same key, which
// is benign (both produce content with the same checksum). A failed
// write degrades to a plain eviction.
func (tc *traceCache) spill(jobs []spillJob, tel *Telemetry) {
	if len(jobs) == 0 {
		return
	}
	dir, err := tc.spillDir()
	if err != nil {
		return
	}
	for _, j := range jobs {
		path := filepath.Join(dir, spillName(j.key))
		// The checksum is computed here, not at build time: the payload
		// is immutable, and only the minority of entries that reach a
		// spill file ever need one.
		sum := j.val.checksum()
		n, err := writeSpill(path, j.val)
		if err != nil {
			os.Remove(path)
			continue
		}
		tc.mu.Lock()
		if tc.spilled[j.key] == nil {
			tc.spilled[j.key] = &spillSlot{path: path, sum: sum, size: n}
			tc.c.Spills++
			tc.c.SpillBytes += n
		}
		used := tc.used
		tc.mu.Unlock()
		tel.traceCacheEvent(tracespan.KindTraceSpill, j.key.name, time.Time{}, 0, used)
	}
}

// writeSpill encodes val into a V2 trace file and reports its size.
func writeSpill(path string, val payload) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w, err := trace.NewCompressedWriter(f)
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := val.spillRecords(w); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// reloadSpill decodes one spill file; when verify is set it also checks
// the content against the build-time checksum (the slot's first reload
// — see spillSlot.verified).
func reloadSpill(slot *spillSlot, load func(*trace.CompressedReader) (payload, error), verify bool) (payload, error) {
	f, err := os.Open(slot.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewCompressedReader(f)
	if err != nil {
		return nil, err
	}
	val, err := load(r)
	if err != nil {
		return nil, err
	}
	if verify {
		if got := val.checksum(); got != slot.sum {
			return nil, fmt.Errorf("spill %s: checksum %x, want %x", slot.path, got, slot.sum)
		}
	}
	return val, nil
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
// the generator at most once per key across the whole process. Only the
// timed CPU model needs whole records; stream consumers go through
// cachedData/cachedFetch, which never build one.
//
// The entry stays pinned until the caller runs release: concurrent
// trace groups each replay their own record trace, and evicting one
// mid-group would only make its next unit rebuild it.
func cachedRecords(opts Opts, p *workload.Profile) (rt *recordTrace, release func(), err error) {
	budget := opts.traceBudget()
	if budget <= 0 {
		sharedTraces.countGeneration()
		rt, err = generateRecords(p, opts.Instructions)
		return rt, func() {}, err
	}
	key := recordTraceKey(opts, p)
	val, err := sharedTraces.get(key, budget, true,
		func() (payload, error) {
			sharedTraces.countGeneration()
			return generateRecords(p, opts.Instructions)
		},
		func(r *trace.CompressedReader) (payload, error) {
			return loadRecordTrace(r, p.Name)
		})
	if err != nil {
		return nil, nil, err
	}
	return val.(*recordTrace), func() { sharedTraces.unpin(key, val) }, nil
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
// opts.LineBytes for a stream miss. A resident record trace is
// extracted from; otherwise the generator runs straight into the two
// streams, so a campaign that only replays streams never allocates or
// spills a record trace.
func buildStreams(opts Opts, p *workload.Profile) (*dataTrace, *fetchTrace, error) {
	if val, ok := sharedTraces.resident(recordTraceKey(opts, p)); ok {
		rt := val.(*recordTrace)
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
// directly. A miss builds both streams (buildStreams) and publishes the
// opts.LineBytes fetch stream as a byproduct, so a later I-side
// experiment at the same line size hits without another generator run.
func cachedData(opts Opts, p *workload.Profile) (*dataTrace, error) {
	budget := opts.traceBudget()
	if budget <= 0 {
		dt, _, err := generateStreams(opts, p)
		return dt, err
	}
	val, err := sharedTraces.get(dataTraceKey(opts, p), budget, false,
		func() (payload, error) {
			dt, ft, err := buildStreams(opts, p)
			if err != nil {
				return nil, err
			}
			sharedTraces.putIfAbsent(fetchTraceKey(opts, p), ft, budget)
			return dt, nil
		},
		func(r *trace.CompressedReader) (payload, error) {
			return loadDataTrace(r, p.Name)
		})
	if err != nil {
		return nil, err
	}
	return val.(*dataTrace), nil
}

// cachedFetch is cachedData's I-side twin; a miss publishes the data
// stream as the byproduct.
func cachedFetch(opts Opts, p *workload.Profile) (*fetchTrace, error) {
	budget := opts.traceBudget()
	if budget <= 0 {
		_, ft, err := generateStreams(opts, p)
		return ft, err
	}
	val, err := sharedTraces.get(fetchTraceKey(opts, p), budget, false,
		func() (payload, error) {
			dt, ft, err := buildStreams(opts, p)
			if err != nil {
				return nil, err
			}
			sharedTraces.putIfAbsent(dataTraceKey(opts, p), dt, budget)
			return ft, nil
		},
		func(r *trace.CompressedReader) (payload, error) {
			return loadFetchTrace(r, p.Name)
		})
	if err != nil {
		return nil, err
	}
	return val.(*fetchTrace), nil
}
