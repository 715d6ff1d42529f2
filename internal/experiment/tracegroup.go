package experiment

import (
	"context"
	"sync"
	"time"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/trace"
	"bcache/internal/workload"
)

// The experiments replay the same few instruction streams against many
// cache configurations. RunAll orders a campaign by trace, so every
// consumer of one (profile, seed, n), whichever experiment declared it,
// runs in one scheduler group, and the group runs as one pass: the
// workload generator fills a chunk of records at a time, the pass
// extracts the D-cache accesses and the I-cache fetches at each line
// size some engine reads, and hands the chunk, in declared unit order,
// to the engine of every unit of the group still pending. Nothing of
// the trace outlives its chunk, so a pass holds a fixed few hundred
// KiB of buffers whatever n is, and the generator runs once per group.
//
// The streams a chunk carries:
//
//   - the records: the raw generator output, which the timed CPU model
//     reads (every field of every instruction);
//   - the data stream: the D-cache accesses, packed 8 bytes each. Set
//     and tag derivation happen inside the caches, so the stream does
//     not depend on the line size;
//   - one fetch stream per line size: consecutive same-line PCs
//     collapse into one I-cache access, as in the CPU model's fetch.

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

// TraceCacheCounters reports the trace passes of the process. Its
// name and its always-zero fields predate streaming (when traces were
// kept in a cache) and stay until the benchmark harness, which reads
// every field, stops doing so.
type TraceCacheCounters struct {
	// Hits is always 0: a pass hands each chunk to every engine that
	// reads it, so no trace is ever looked up. Misses counts passes, like
	// Generations. Reloads is always 0: nothing is written to disk.
	Hits    uint64
	Misses  uint64
	Reloads uint64
	// Generations counts workload-generator runs: one per pass.
	Generations uint64
	// Evictions and Spills are always 0: nothing is kept, so nothing is
	// evicted or spilled.
	Evictions uint64
	Spills    uint64
	// Bytes is the chunk-buffer bytes of the passes running now;
	// PeakBytes is its high-water mark. SpillBytes is always 0.
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

// ResetTraceCache zeroes the trace counters (test hook). Nothing else
// outlives a pass.
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

// A stream is what an engine reads from each chunk of a pass: the
// D-cache accesses (dataStream, the zero value), the records themselves
// (recordStream), or the I-cache fetches at a line size (fetchStream).
type stream int

const (
	dataStream   stream = 0
	recordStream stream = -1
)

// fetchStream is the I-cache stream at lineBytes.
func fetchStream(lineBytes int) stream { return stream(lineBytes) }

// chunkRecords is how many records a pass generates at a time: 96 KiB
// of records, small enough to stay in cache between the generator
// writing them, the extractions and the engines reading them.
const chunkRecords = 4096

// recordBytes is the in-memory stride of one trace.Record (two 8-byte
// addresses plus five bytes, padded).
const recordBytes = 24

// A chunk is one piece of a pass: consecutive generator records and the
// streams extracted from them. It carries only the streams some engine
// of the pass reads.
type chunk struct {
	recs  []trace.Record
	data  []memAcc
	fetch []fetchChunk
}

// fetchChunk is a chunk's I-cache stream at one line size.
type fetchChunk struct {
	line  int
	lines fetchLines
	pcs   []addr.Addr
}

// fetchAt returns the chunk's I-cache stream at lineBytes.
func (c *chunk) fetchAt(lineBytes int) []addr.Addr {
	for i := range c.fetch {
		if c.fetch[i].line == lineBytes {
			return c.fetch[i].pcs
		}
	}
	return nil
}

// newChunk allocates the buffers of a chunk of size records for the
// streams in reads, and returns it with its size in bytes.
func newChunk(size int, reads []stream) (*chunk, int64) {
	c := &chunk{recs: make([]trace.Record, size)}
	bytes := int64(size) * recordBytes
	for _, s := range reads {
		switch {
		case s == dataStream && c.data == nil:
			c.data = make([]memAcc, 0, size)
			bytes += int64(size) * 8
		case s > 0 && c.fetchAt(int(s)) == nil:
			c.fetch = append(c.fetch, fetchChunk{line: int(s), lines: newFetchLines(int(s)),
				pcs: make([]addr.Addr, 0, size)})
			bytes += int64(size) * 8
		}
	}
	return c, bytes
}

// extract refills the chunk's streams from its records.
func (c *chunk) extract() {
	if c.data != nil {
		c.data = appendData(c.data[:0], c.recs)
	}
	for i := range c.fetch {
		f := &c.fetch[i]
		f.pcs = f.lines.appendPCs(f.pcs[:0], c.recs)
	}
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
// across calls, so a stream is extracted chunk by chunk.
type fetchLines struct {
	mask, cur addr.Addr
}

func newFetchLines(lineBytes int) fetchLines {
	return fetchLines{mask: ^addr.Addr(uint64(lineBytes) - 1), cur: ^addr.Addr(0)}
}

// appendPCs appends the line-entering PCs among recs to pcs.
func (f *fetchLines) appendPCs(pcs []addr.Addr, recs []trace.Record) []addr.Addr {
	for i := range recs {
		if line := recs[i].PC & f.mask; line != f.cur {
			f.cur = line
			pcs = append(pcs, recs[i].PC)
		}
	}
	return pcs
}

// A feeder is one pending unit's engine in a pass.
type feeder struct {
	unit  int // the unit's index, for its panic error
	reads stream
	feed  func(*chunk)
	// err is set when feed panicked; the pass feeds the engine no more.
	err error
	// busy is the time feed took, when the pass is timed.
	busy time.Duration
}

// step feeds c to f, turning a panic into f's error.
func (f *feeder) step(c *chunk) {
	defer recovered(f.unit, &f.err)
	f.feed(c)
}

// runPass runs p's generator for n records, a chunk at a time, and
// hands each chunk to every feeder in order. It stops early, with ctx's
// error, once ctx is done. It returns the resident trace bytes while it
// ran, its own chunk buffers included. With a non-nil now it also times
// the pass: each feeder's busy time, and the generation and extraction
// time it returns.
func runPass(ctx context.Context, p *workload.Profile, n uint64, fs []*feeder,
	now func() time.Time) (build time.Duration, resident int64, err error) {
	gen, err := workload.New(p)
	if err != nil {
		return 0, 0, err
	}
	reads := make([]stream, len(fs))
	for i, f := range fs {
		reads[i] = f.reads
	}
	c, bytes := newChunk(int(min(n, chunkRecords)), reads)
	resident = tally(func(c *TraceCacheCounters) {
		c.Generations++
		c.Misses++
		c.Bytes += bytes
		c.PeakBytes = max(c.PeakBytes, c.Bytes)
	})
	defer tally(func(c *TraceCacheCounters) { c.Bytes -= bytes })
	buf := c.recs
	for left := n; left > 0; left -= uint64(len(c.recs)) {
		if err := ctx.Err(); err != nil {
			return build, resident, err
		}
		var t time.Time
		if now != nil {
			t = now()
		}
		c.recs = buf[:min(left, uint64(len(buf)))]
		gen.Fill(c.recs)
		c.extract()
		if now != nil {
			t1 := now()
			build += t1.Sub(t)
			t = t1
		}
		for _, f := range fs {
			if f.err != nil {
				continue
			}
			f.step(c)
			if now != nil {
				t1 := now()
				f.busy += t1.Sub(t)
				t = t1
			}
		}
	}
	return build, resident, nil
}
