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
// cache configurations. RunAll orders a campaign by trace, so every
// consumer of one (profile, seed, n), whichever experiment declared it,
// runs in one scheduler group, and that group owns the trace's
// payloads: a traceGroup. It builds each one lazily, the first time a
// unit asks, keeps it for the group's other units, and drops them all
// when the group ends. It holds three payload kinds:
//
//   - the record trace: the raw generator output, built only when some
//     unit of the group runs the timed CPU model, which needs every
//     field of every instruction;
//   - the data stream: the D-cache byte-address stream, packed 8 bytes
//     per access. Set and tag derivation happen inside the caches, so
//     the stream does not depend on the line size;
//   - one fetch stream per line size: consecutive same-line PCs
//     collapse, so this is the one stream a line-size sweep re-derives.
//
// A group that runs the CPU model extracts its streams from the record
// trace. Any other group runs the generator straight into both streams
// on its first stream request (materialize) and keeps both. So each
// group runs the generator once while its streams fit the budget, and
// a record trace is never built just to derive streams.
//
// The byte budget (Opts.TraceBytes) bounds the resident bytes of all
// groups in the process. A built stream is kept only if the resident
// bytes, counting it, fit the budget; otherwise it goes to its
// requester alone, and the group's next request rebuilds it, from the
// record trace when the group has one. A record trace is kept for its
// group's lifetime whatever the budget. A negative budget keeps
// nothing. Payloads are immutable after build, so a unit holding one
// keeps using it after its group drops it; transient process RSS can
// exceed the budget by the working set of in-flight units.

// defaultTraceBytes is the budget when Opts does not set one. At
// DefaultOpts one trace group holds its record trace (~48 MB), data
// stream (~4.4 MB) and 32-byte-line fetch stream (~2.5 MB); 232 MiB
// holds four such groups, one per concurrent worker on a 4-CPU
// machine, before a stream is left unkept.
const defaultTraceBytes = 232 << 20

// traceKey identifies one trace: a scheduler group.
type traceKey struct {
	name         string
	seed         uint64
	instructions uint64
}

// traceOf is the trace p's generator produces at opts' length.
func traceOf(opts Opts, p *workload.Profile) traceKey {
	return traceKey{name: p.Name, seed: p.Seed, instructions: opts.Instructions}
}

// TraceCacheCounters reports trace-payload effectiveness across every
// trace group of the process.
type TraceCacheCounters struct {
	// Hits are requests a group answered from a payload it kept;
	// Misses are payloads built on request (the other stream of a
	// materialize pass is counted under neither). Reloads is always 0:
	// nothing is spilled to disk, and the field stays for the benchmark
	// harness that reports it.
	Hits    uint64
	Misses  uint64
	Reloads uint64
	// Generations counts workload-generator runs: every record-trace
	// build and every stream build that had no record trace to extract
	// from.
	Generations uint64
	// Evictions counts streams built but not kept, because they did not
	// fit the budget. Spills is always 0, like Reloads.
	Evictions uint64
	Spills    uint64
	// Bytes is resident; PeakBytes is the resident high-water mark.
	// SpillBytes is always 0, like Reloads.
	Bytes      int64
	SpillBytes int64
	PeakBytes  int64
}

// traceStats holds the counters behind TraceCacheStats: the only
// process-wide trace state.
var traceStats struct {
	mu sync.Mutex
	c  TraceCacheCounters // guarded by mu
}

// ResetTraceCache zeroes the trace counters (test hook). Payloads
// belong to their trace groups, so there is nothing else to drop.
func ResetTraceCache() {
	traceStats.mu.Lock()
	traceStats.c = TraceCacheCounters{}
	traceStats.mu.Unlock()
}

// CleanupTraceSpill does nothing: no trace is written to disk. It
// stays for the benchmark harness, which still calls it.
func CleanupTraceSpill() {}

// TraceCacheStats returns a snapshot of the trace counters.
func TraceCacheStats() TraceCacheCounters {
	traceStats.mu.Lock()
	defer traceStats.mu.Unlock()
	return traceStats.c
}

// tally applies f to the trace counters and returns the resident
// bytes after it.
func tally(f func(c *TraceCacheCounters)) int64 {
	traceStats.mu.Lock()
	defer traceStats.mu.Unlock()
	f(&traceStats.c)
	return traceStats.c.Bytes
}

// ---- data traces ----

// dataTrace is the packed D-cache access stream for one (profile, seed,
// n). Immutable after build.
type dataTrace struct {
	accs []memAcc
}

func (dt *dataTrace) sizeBytes() int64 { return int64(cap(dt.accs)) * 8 }

// ---- fetch traces ----

// fetchTrace is the I-cache access stream for one (profile, seed, n,
// line size): one PC per executed basic-block line. Immutable after
// build.
type fetchTrace struct {
	pcs []addr.Addr
}

func (ft *fetchTrace) sizeBytes() int64 { return int64(cap(ft.pcs)) * 8 }

// ---- record traces ----

// recordTrace is the raw generator output for one (profile, seed, n):
// the stream the timed CPU model consumes and address streams are
// extracted from. Immutable after build; resident only while its trace
// group runs.
type recordTrace struct {
	recs []trace.Record
}

// recordBytes is the in-memory stride of one trace.Record (two 8-byte
// addresses plus five bytes, padded).
const recordBytes = 24

func (rt *recordTrace) sizeBytes() int64 { return int64(cap(rt.recs)) * recordBytes }

// generateRecords runs the workload generator for exactly n records —
// the same count materialize and the timed CPU model consume, so a
// kept record trace is bit-identical input for both.
func generateRecords(p *workload.Profile, n uint64) (*recordTrace, error) {
	g, err := workload.New(p)
	if err != nil {
		return nil, err
	}
	rt := &recordTrace{recs: make([]trace.Record, n)}
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
	return &dataTrace{accs: clip(accs)}, &fetchTrace{pcs: clip(pcs)}, nil
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
// charges to the trace budget.
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
	return &dataTrace{accs: appendData(make([]memAcc, 0, n), rt.recs)}
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
	return &fetchTrace{pcs: lines.appendPCs(make([]addr.Addr, 0, n), rt.recs)}
}

// ---- the group ----

// traceGroup owns the payloads of one scheduler group's trace. Every
// unit's exec receives its group; the scheduler drops the group when
// the group's last unit returns, and a worker's Plan when it moves to a
// unit on another trace.
type traceGroup struct {
	key  traceKey
	prof *workload.Profile
	// line is the line size of the fetch stream a data-stream miss
	// builds alongside it.
	line int
	// cpu marks a group some unit of which runs the CPU model: its
	// streams are extracted from the record trace.
	cpu bool

	mu     sync.Mutex
	budget int64               // guarded by mu; 0 keeps nothing
	rt     *recordTrace        // guarded by mu
	dt     *dataTrace          // guarded by mu
	fts    map[int]*fetchTrace // guarded by mu; by line size
	held   int64               // guarded by mu; bytes kept
}

// newTraceGroup returns the empty trace group of us[i]: the run of
// consecutive units of us on its trace, which is one scheduler group,
// under us[i]'s options. It runs the CPU model if any unit of the run
// does.
func newTraceGroup(us []unit, i int) *traceGroup {
	o := us[i].opts
	g := &traceGroup{key: us[i].trace(), prof: us[i].prof, line: o.LineBytes,
		budget: o.traceBudget(), fts: map[int]*fetchTrace{}}
	lo, hi := i, i+1
	for lo > 0 && us[lo-1].trace() == g.key {
		lo--
	}
	for hi < len(us) && us[hi].trace() == g.key {
		hi++
	}
	for _, u := range us[lo:hi] {
		g.cpu = g.cpu || u.records
	}
	return g
}

// traceBudget resolves the Opts knob: 0 means the default budget,
// negative keeps nothing.
func (o Opts) traceBudget() int64 {
	if o.TraceBytes == 0 {
		return defaultTraceBytes
	}
	return max(o.TraceBytes, 0)
}

// drop releases every payload the group keeps. A dropped group keeps
// nothing more: a unit abandoned past its deadline may still ask it
// for a payload, and gets one of its own. drop is nil-safe.
func (g *traceGroup) drop() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	held := g.held
	tally(func(c *TraceCacheCounters) { c.Bytes -= held })
	clear(g.fts)
	g.rt, g.dt, g.held, g.budget = nil, nil, 0, 0
}

// records returns the group's record trace.
func (g *traceGroup) records() (*recordTrace, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recordsLocked()
}

func (g *traceGroup) recordsLocked() (*recordTrace, error) {
	if g.rt != nil {
		g.hit()
		return g.rt, nil
	}
	start := spanStart()
	tally(func(c *TraceCacheCounters) { c.Generations++ })
	rt, err := generateRecords(g.prof, g.key.instructions)
	if err != nil || g.budget <= 0 {
		return rt, err
	}
	g.rt = rt
	g.keepLocked(rt.sizeBytes(), true)
	g.built(start)
	return rt, nil
}

// data returns the group's D-cache stream.
func (g *traceGroup) data() (*dataTrace, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dt != nil {
		g.hit()
		return g.dt, nil
	}
	dt, _, err := g.streamsLocked(g.line, true)
	return dt, err
}

// fetch returns the group's I-cache stream at lineBytes.
func (g *traceGroup) fetch(lineBytes int) (*fetchTrace, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ft := g.fts[lineBytes]; ft != nil {
		g.hit()
		return ft, nil
	}
	_, ft, err := g.streamsLocked(lineBytes, false)
	return ft, err
}

// streamsLocked builds the stream a miss asked for: the data stream
// (wantData) or the fetch stream at lineBytes. A group that runs the
// CPU model, or already holds its record trace, extracts it from the
// record trace; otherwise the generator runs straight into both
// streams, and the group keeps both if they fit.
func (g *traceGroup) streamsLocked(lineBytes int, wantData bool) (*dataTrace, *fetchTrace, error) {
	if g.budget <= 0 {
		tally(func(c *TraceCacheCounters) { c.Generations++ })
		return materialize(g.prof, g.key.instructions, lineBytes)
	}
	start := spanStart()
	var dt *dataTrace
	var ft *fetchTrace
	if g.cpu || g.rt != nil {
		rt, err := g.recordsLocked()
		if err != nil {
			return nil, nil, err
		}
		if wantData {
			dt = extractData(rt)
		} else {
			ft = extractFetch(rt, lineBytes)
		}
	} else {
		tally(func(c *TraceCacheCounters) { c.Generations++ })
		var err error
		if dt, ft, err = materialize(g.prof, g.key.instructions, lineBytes); err != nil {
			return nil, nil, err
		}
	}
	if dt != nil && g.dt == nil && g.keepLocked(dt.sizeBytes(), false) {
		g.dt = dt
	}
	if ft != nil && g.fts[lineBytes] == nil && g.keepLocked(ft.sizeBytes(), false) {
		g.fts[lineBytes] = ft
	}
	g.built(start)
	return dt, ft, nil
}

// keepLocked accounts a built payload of size bytes and reports
// whether the group keeps it: a record trace always, a stream only
// when the resident bytes, counting it, fit the budget.
func (g *traceGroup) keepLocked(size int64, always bool) bool {
	budget := g.budget
	kept := false
	tally(func(c *TraceCacheCounters) {
		if !always && c.Bytes+size > budget {
			c.Evictions++
			return
		}
		c.Bytes += size
		c.PeakBytes = max(c.PeakBytes, c.Bytes)
		kept = true
	})
	if kept {
		g.held += size
	}
	return kept
}

// hit counts and reports a request answered from a kept payload.
func (g *traceGroup) hit() {
	used := tally(func(c *TraceCacheCounters) { c.Hits++ })
	CurrentTelemetry().Emit(tracespan.Span{Kind: tracespan.KindTraceHit, Name: g.prof.Name,
		Worker: tracespan.SharedWorker, Unit: -1, Bytes: used})
}

// spanStart returns the start time of a build's span (zero when no
// telemetry hub is installed).
func spanStart() time.Time {
	if tel := CurrentTelemetry(); tel != nil {
		return tel.now()
	}
	return time.Time{}
}

// built counts and reports a payload built on request since start.
func (g *traceGroup) built(start time.Time) {
	used := tally(func(c *TraceCacheCounters) { c.Misses++ })
	if tel := CurrentTelemetry(); tel != nil {
		tel.Emit(tracespan.Span{Kind: tracespan.KindTraceBuild, Name: g.prof.Name,
			Worker: tracespan.SharedWorker, Unit: -1, StartUnixNano: start.UnixNano(),
			DurNanos: int64(tel.now().Sub(start)), Bytes: used})
	}
}
