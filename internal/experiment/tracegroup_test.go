package experiment

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bcache/internal/cpu"
	"bcache/internal/hier"
	"bcache/internal/trace"
	"bcache/internal/workload"
)

// The materialize-then-replay twin: the way traces were consumed before
// passes streamed them. A whole record trace is generated, its streams
// are extracted whole, and each engine is fed them as one chunk. The
// streaming pass is held to it.

// generateRecords runs the workload generator for exactly n records.
func generateRecords(t testing.TB, p *workload.Profile, n uint64) []trace.Record {
	t.Helper()
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, n)
	g.Fill(recs)
	return recs
}

// extractData is the D-cache stream of a whole record trace.
func extractData(recs []trace.Record) []memAcc { return appendData(nil, recs) }

// extractFetch is the I-cache stream of a whole record trace at one line
// size.
func extractFetch(recs []trace.Record, lineBytes int) []memAcc {
	lines := newFetchLines(lineBytes)
	return lines.appendFetches(nil, recs)
}

// materialize runs the generator for n instructions straight into both
// whole address streams, a chunk of records at a time.
func materialize(t testing.TB, p *workload.Profile, n uint64, lineBytes int) ([]memAcc, []memAcc) {
	t.Helper()
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var (
		accs  []memAcc
		pcs   []memAcc
		lines = newFetchLines(lineBytes)
		buf   = make([]trace.Record, min(n, chunkRecords))
	)
	for left := n; left > 0; {
		c := buf[:min(left, uint64(len(buf)))]
		g.Fill(c)
		accs = appendData(accs, c)
		pcs = lines.appendFetches(pcs, c)
		left -= uint64(len(c))
	}
	return accs, pcs
}

// wholeChunk is a whole trace as one chunk, carrying the streams in
// reads.
func wholeChunk(recs []trace.Record, reads []stream) *chunk {
	c := &chunk{recs: recs, data: extractData(recs)}
	for _, s := range reads {
		if s > 0 && c.fetchAt(int(s)) == nil {
			c.fetch = append(c.fetch, fetchChunk{line: int(s), accs: extractFetch(recs, int(s))})
		}
	}
	return c
}

// replayMaterialized runs a campaign over exps the materialize-then-
// replay way, outside the scheduler: per trace group, one whole-trace
// chunk fed once to the engine of every unit. It returns every unit's
// results by key.
func replayMaterialized(t *testing.T, opts Opts, exps []Experiment) results {
	t.Helper()
	us := campaignUnits(opts, exps)
	starts := append(groupStarts(us), len(us))
	res := results{}
	for g := 0; g+1 < len(starts); g++ {
		group := us[starts[g]:starts[g+1]]
		reads := make([]stream, len(group))
		for x, u := range group {
			reads[x] = u.reads
		}
		c := wholeChunk(generateRecords(t, group[0].prof, group[0].opts.Instructions), reads)
		for _, u := range group {
			e, err := u.start()
			if err != nil {
				t.Fatalf("%s: %v", u.label, err)
			}
			e.feed(c)
			vals, err := e.results()
			if err != nil {
				t.Fatalf("%s: %v", u.label, err)
			}
			for x, key := range u.keys {
				res[key] = vals[x]
			}
		}
	}
	return res
}

// renderCSV renders every experiment of exps from res as CSV.
func renderCSV(t *testing.T, opts Opts, exps []Experiment, res results) []byte {
	t.Helper()
	var b []byte
	for _, e := range exps {
		tables, err := e.Render(opts, res)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b = append(b, csvOf(t, tables)...)
	}
	return b
}

// TestStreamingMatchesMaterializedTwin: every registered experiment,
// run as one streaming campaign at 1 and at 2 workers, renders the CSV
// of the materialize-then-replay twin byte for byte. It runs at 60k
// instructions, like TestRunAllMatchesPerExperimentRuns: three full
// registry runs at tinyOpts' 120k take two minutes under -race.
func TestStreamingMatchesMaterializedTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("three full registry runs")
	}
	opts := tinyOpts()
	opts.Instructions = 60_000
	want := renderCSV(t, opts, All(), replayMaterialized(t, opts, All()))
	for _, workers := range []int{1, 2} {
		o := opts
		o.Workers = workers
		var got []byte
		for i, out := range RunAll(o, All()) {
			if out.Err != nil {
				t.Fatalf("%d workers: %s: %v", workers, All()[i].ID, out.Err)
			}
			got = append(got, csvOf(t, out.Tables)...)
		}
		if string(got) != string(want) {
			t.Fatalf("%d workers: streaming CSV differs from the materialized twin\nstreaming:\n%s\ntwin:\n%s", workers, got, want)
		}
	}
}

// TestExtractMatchesMaterialize: deriving the address streams from a
// whole record trace gives byte-for-byte the streams the
// generator-driven materialize produces, for every line size the suite
// sweeps (the data stream is line-independent; materialize proves that
// by producing the same one at every line size).
func TestExtractMatchesMaterialize(t *testing.T) {
	const n = 50_000
	for _, p := range workload.All()[:3] {
		recs := generateRecords(t, p, n)
		data := extractData(recs)
		for _, lb := range []int{16, 32, 64} {
			wantData, wantFetch := materialize(t, p, n, lb)
			if !reflect.DeepEqual(data, wantData) {
				t.Fatalf("%s line=%d: extracted data stream diverges from materialize", p.Name, lb)
			}
			if !reflect.DeepEqual(extractFetch(recs, lb), wantFetch) {
				t.Fatalf("%s line=%d: extracted fetch stream diverges from materialize", p.Name, lb)
			}
		}
	}
}

// collector is a feeder that keeps every chunk it is handed: the
// streams a pass produces, concatenated.
type collector struct {
	recs []trace.Record
	data []memAcc
	pcs  []memAcc
}

func (c *collector) feeder(s stream) *feeder {
	return &feeder{reads: s, feed: func(ch *chunk) {
		switch {
		case s == recordStream:
			c.recs = append(c.recs, ch.recs...)
		case s == dataStream:
			c.data = append(c.data, ch.data...)
		default:
			c.pcs = append(c.pcs, ch.fetchAt(int(s))...)
		}
	}}
}

// pass runs p's trace at n through fs.
func pass(t testing.TB, p *workload.Profile, n uint64, fs ...*feeder) {
	t.Helper()
	if _, _, err := runPass(context.Background(), p, n, fs, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStreamsExactlySized: a chunk's streams never outgrow the buffers
// newChunk allocates, so the chunk-buffer bytes a pass accounts are the
// bytes it holds. All 26 profiles, at 32- and 64-byte lines.
func TestStreamsExactlySized(t *testing.T) {
	const n = 40_000
	for _, p := range workload.All() {
		recs := generateRecords(t, p, n)
		c, bytes := newChunk(chunkRecords, []stream{dataStream, fetchStream(32), fetchStream(64)})
		if want := int64(chunkRecords) * (recordBytes + 3*8); bytes != want {
			t.Fatalf("chunk of %d records accounts %d bytes, want %d", chunkRecords, bytes, want)
		}
		dataCap, fetchCaps := cap(c.data), []int{cap(c.fetch[0].accs), cap(c.fetch[1].accs)}
		for lo := 0; lo < n; lo += chunkRecords {
			c.recs = recs[lo:min(lo+chunkRecords, n)]
			c.extract()
			if cap(c.data) != dataCap || cap(c.fetch[0].accs) != fetchCaps[0] || cap(c.fetch[1].accs) != fetchCaps[1] {
				t.Fatalf("%s: a chunk's stream outgrew its buffer", p.Name)
			}
		}
	}
}

// TestPeakBytesHighWater: PeakBytes records the resident high-water
// mark — one pass's chunk buffers — which survives the end of the pass
// that returns Bytes to zero.
func TestPeakBytesHighWater(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	p := mustProfile(t, "gcc")
	var col collector
	pass(t, p, 20_000, col.feeder(dataStream))
	c := TraceCacheStats()
	if want := int64(chunkRecords) * (recordBytes + 8); c.PeakBytes != want || c.Bytes != 0 {
		t.Fatalf("peak %d (want %d), resident %d after the pass", c.PeakBytes, want, c.Bytes)
	}
	pass(t, p, 1_000, col.feeder(dataStream))
	if after := TraceCacheStats(); after.PeakBytes != c.PeakBytes || after.Bytes != 0 {
		t.Fatalf("a smaller pass moved the peak from %d to %d, or left %d bytes", c.PeakBytes, after.PeakBytes, after.Bytes)
	}
}

// passBytes is the chunk-buffer bytes of a full-size pass whose engines
// read records (always generated), data and fetchLines fetch streams.
func passBytes(fetchLines int) int64 {
	return chunkRecords * (recordBytes + 8 + 8*int64(fetchLines))
}

// framedPassBytes is the chunk-buffer bytes of a full-size pass whose
// timed engines read one timing frame, which brings the data stream and
// one fetch stream with it.
func framedPassBytes() int64 {
	return passBytes(1) + cpu.NewFrame(chunkRecords, 32, hier.Defaults().L1Latency).Bytes()
}

// TestPeakStaysWithinBudget: whatever the campaign, the resident trace
// bytes never exceed one pass's chunk buffers per worker, and nothing
// is left resident after it.
func TestPeakStaysWithinBudget(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Workers = 2
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "equake"), mustProfile(t, "crafty")}
	campaign := []Experiment{{ID: "d", Units: func(o Opts) []unit { return sweep{o, profiles, figureSpecs(), dSide}.units() }},
		{ID: "i", Units: func(o Opts) []unit { return sweep{o, profiles, figureSpecs(), iSide}.units() }}}
	if _, err := runUnits(opts, campaignUnits(opts, campaign)); err != nil {
		t.Fatal(err)
	}
	if c, budget := TraceCacheStats(), int64(opts.Workers)*passBytes(1); c.PeakBytes > budget || c.PeakBytes == 0 || c.Bytes != 0 {
		t.Fatalf("campaign: resident peak %d over %d workers' chunk buffers (%d), or %d bytes left resident",
			c.PeakBytes, opts.Workers, budget, c.Bytes)
	}
}

// TestResidentBytesIndependentOfN: a CPU-model group and a stream-only
// group hold the same resident bytes at n and at 4n — chunk buffers and
// the timing frame, never the trace — within one framed pass's buffers
// per worker.
func TestResidentBytesIndependentOfN(t *testing.T) {
	defer ResetTraceCache()
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "equake")}
	campaign := []Experiment{
		{ID: "cpu", Units: func(o Opts) []unit { return timedDMBC(o, profiles[:1]).units() }},
		{ID: "streams", Units: func(o Opts) []unit { return sweep{o, profiles[1:], figureSpecs(), iSide}.units() }},
	}
	for _, workers := range []int{1, 2} {
		var peaks []int64
		for _, n := range []uint64{20_000, 80_000} {
			ResetTraceCache()
			opts := tinyOpts()
			opts.Instructions, opts.Workers = n, workers
			if _, err := runUnits(opts, campaignUnits(opts, campaign)); err != nil {
				t.Fatal(err)
			}
			c := TraceCacheStats()
			if budget := int64(workers) * framedPassBytes(); c.PeakBytes > budget || c.Bytes != 0 {
				t.Fatalf("%d workers, n=%d: peak %d over %d, or %d bytes left", workers, n, c.PeakBytes, budget, c.Bytes)
			}
			peaks = append(peaks, c.PeakBytes)
		}
		// Two workers may or may not overlap the two passes; one
		// worker's peak is exactly the wider pass's buffers.
		if workers == 1 && peaks[0] != peaks[1] {
			t.Fatalf("resident peak grew with n: %d at n, %d at 4n", peaks[0], peaks[1])
		}
	}
}

// recordGroups runs a CPU-model grid campaign whose units read, per
// profile, the records, the data stream and the fetch stream, so one
// pass feeds every stream kind.
func recordGroups(t *testing.T, opts Opts, profiles []*workload.Profile) {
	t.Helper()
	var us []unit
	for k, s := range []stream{recordStream, dataStream, fetchStream(opts.LineBytes)} {
		g := grid[int]{id: fmt.Sprintf("records%d", k), opts: opts, profiles: profiles, configs: []string{"a", "b"}, reads: s,
			run: func(*workload.Profile, int) (engine[int], error) {
				n := 0
				return engine[int]{feed: func(ch *chunk) { n += len(ch.recs) + len(ch.data) + len(ch.fetchAt(opts.LineBytes)) },
					results: func() (int, error) { return n, nil }}, nil
			}}
		us = append(us, g.units()...)
	}
	if _, err := runUnits(opts, campaignUnits(opts, []Experiment{{ID: "r", Units: func(Opts) []unit { return us }}})); err != nil {
		t.Fatal(err)
	}
}

// TestRecordsNeverEvictedMidGroup: a group whose units read the records,
// the data stream and the fetch stream runs the generator once for all
// of them, however many workers run the campaign.
func TestRecordsNeverEvictedMidGroup(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Workers = 2
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "equake"), mustProfile(t, "mcf")}
	recordGroups(t, opts, profiles)
	if c := TraceCacheStats(); c.Generations != uint64(len(profiles)) || c.Bytes != 0 {
		t.Fatalf("%d generator runs for %d profiles, %d bytes left: %+v", c.Generations, len(profiles), c.Bytes, c)
	}
}

// TestGroupEndRetiresEveryPayload: when a pass ends its chunk buffers
// are released, so the resident bytes return to zero, and a
// record-reading grid's pass feeds its stream units too: one generator
// run per profile.
func TestGroupEndRetiresEveryPayload(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Workers = 2
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "swim")}
	recordGroups(t, opts, profiles)
	c := TraceCacheStats()
	if c.Bytes != 0 {
		t.Fatalf("%d bytes outlived their passes", c.Bytes)
	}
	if c.Generations != uint64(len(profiles)) {
		t.Fatalf("%d generator runs for %d profiles", c.Generations, len(profiles))
	}
}

// TestResidentExtractMatchesDirect: the streams a pass extracts chunk
// by chunk, concatenated, are the whole-trace records and streams of the
// twin, at 32- and 64-byte lines, from one generator run.
func TestResidentExtractMatchesDirect(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	p := mustProfile(t, "gcc")
	const n = 50_000
	recs := generateRecords(t, p, n)
	var all, data, f32, f64 collector
	pass(t, p, n, all.feeder(recordStream), data.feeder(dataStream), f32.feeder(fetchStream(32)), f64.feeder(fetchStream(64)))
	if c := TraceCacheStats(); c.Generations != 1 {
		t.Fatalf("%d generator runs for one pass", c.Generations)
	}
	if !reflect.DeepEqual(all.recs, recs) {
		t.Fatal("the pass's records diverge from the whole record trace")
	}
	if !reflect.DeepEqual(data.data, extractData(recs)) {
		t.Fatal("the pass's data stream diverges from the whole-trace extraction")
	}
	if !reflect.DeepEqual(f32.pcs, extractFetch(recs, 32)) || !reflect.DeepEqual(f64.pcs, extractFetch(recs, 64)) {
		t.Fatal("the pass's fetch streams diverge from the whole-trace extraction")
	}
}

// TestSiblingWarmingMatchesOracle: a stream-only pass extracts the data
// stream and the fetch stream from one generator run, and both match
// materialize exactly.
func TestSiblingWarmingMatchesOracle(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p := mustProfile(t, "gcc")
	wantData, wantFetch := materialize(t, p, opts.Instructions, opts.LineBytes)
	var data, fetch collector
	pass(t, p, opts.Instructions, data.feeder(dataStream), fetch.feeder(fetchStream(opts.LineBytes)))
	if !reflect.DeepEqual(data.data, wantData) || !reflect.DeepEqual(fetch.pcs, wantFetch) {
		t.Fatal("pass streams diverge from materialize")
	}
	if c := TraceCacheStats(); c.Generations != 1 {
		t.Fatalf("%d generator runs for one pass", c.Generations)
	}
}

// TestTraceGroupConcurrentMatchesOracle races passes over one trace:
// goroutines each run their own pass for records, the data stream, or
// the fetch streams at 32 and 64 bytes. Every pass must hand its
// feeders the twin's streams, one generator run each.
func TestTraceGroupConcurrentMatchesOracle(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	p := mustProfile(t, "gcc")
	const n, callers = 60_000, 3
	recs := generateRecords(t, p, n)
	want := map[stream]collector{recordStream: {recs: recs}, dataStream: {data: extractData(recs)},
		fetchStream(32): {pcs: extractFetch(recs, 32)}, fetchStream(64): {pcs: extractFetch(recs, 64)}}
	var wg sync.WaitGroup
	for range callers {
		for s, w := range want {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got collector
				if _, _, err := runPass(context.Background(), p, n, []*feeder{got.feeder(s)}, nil); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, w) {
					t.Errorf("stream %d diverges from the twin", s)
				}
			}()
		}
	}
	wg.Wait()
	if c := TraceCacheStats(); c.Generations != callers*uint64(len(want)) || c.Bytes != 0 {
		t.Errorf("%d generator runs for %d passes, %d bytes left", c.Generations, callers*len(want), c.Bytes)
	}
}

func mustProfile(t *testing.T, name string) *workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// BenchmarkPass times the generation layer on its own: one op runs a
// pass extracting the data stream and the 32-byte-line fetch stream for
// all 26 profiles at 500k instructions, with no engine.
func BenchmarkPass(b *testing.B) {
	const n = 500_000
	sink := &feeder{reads: fetchStream(32), feed: func(*chunk) {}}
	data := &feeder{reads: dataStream, feed: func(*chunk) {}}
	for i := 0; i < b.N; i++ {
		for _, p := range workload.All() {
			if _, _, err := runPass(context.Background(), p, n, []*feeder{data, sink}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*26*n), "ns/instr")
}
