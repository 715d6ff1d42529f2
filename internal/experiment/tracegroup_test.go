package experiment

import (
	"reflect"
	"sync"
	"testing"

	"bcache/internal/workload"
)

// TestExtractMatchesMaterialize: deriving the address streams from a
// cached record trace must be byte-for-byte the streams the
// generator-driven materialize oracle produces, for every line size the
// suite sweeps (the data stream is line-independent; the oracle proves
// that by producing the same one at every line size).
func TestExtractMatchesMaterialize(t *testing.T) {
	const n = 50_000
	for _, p := range workload.All()[:3] {
		rt, err := generateRecords(p, n)
		if err != nil {
			t.Fatal(err)
		}
		data := extractData(rt)
		for _, lb := range []int{16, 32, 64} {
			wantData, wantFetch, err := materialize(p, n, lb)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(data.accs, wantData.accs) {
				t.Fatalf("%s line=%d: extracted data stream diverges from materialize", p.Name, lb)
			}
			fetch := extractFetch(rt, lb)
			if !reflect.DeepEqual(fetch.pcs, wantFetch.pcs) {
				t.Fatalf("%s line=%d: extracted fetch stream diverges from materialize", p.Name, lb)
			}
		}
	}
}

// TestStreamsExactlySized: every published address stream has
// len == cap, so sizeBytes — what the trace-cache budget charges — is
// the heap the stream holds. All 26 profiles, at 32- and 64-byte lines,
// from both the direct (materialize) and the extract (record trace)
// paths.
func TestStreamsExactlySized(t *testing.T) {
	const n = 40_000
	check := func(p *workload.Profile, path string, lb int, dt *dataTrace, ft *fetchTrace) {
		t.Helper()
		if len(dt.accs) != cap(dt.accs) || dt.sizeBytes() != int64(len(dt.accs))*8 {
			t.Errorf("%s %s line=%d: data stream len %d cap %d sizeBytes %d",
				p.Name, path, lb, len(dt.accs), cap(dt.accs), dt.sizeBytes())
		}
		if len(ft.pcs) != cap(ft.pcs) || ft.sizeBytes() != int64(len(ft.pcs))*8 {
			t.Errorf("%s %s line=%d: fetch stream len %d cap %d sizeBytes %d",
				p.Name, path, lb, len(ft.pcs), cap(ft.pcs), ft.sizeBytes())
		}
	}
	for _, p := range workload.All() {
		rt, err := generateRecords(p, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, lb := range []int{32, 64} {
			dt, ft, err := materialize(p, n, lb)
			if err != nil {
				t.Fatal(err)
			}
			check(p, "direct", lb, dt, ft)
			check(p, "extract", lb, extractData(rt), extractFetch(rt, lb))
		}
	}
}

// testGroup returns the empty trace group of p's trace at opts, as the
// scheduler builds it for a group of units that only replay streams;
// cpuGroup, for a group with a unit that runs the CPU model.
func testGroup(opts Opts, p *workload.Profile) *traceGroup {
	return newTraceGroup([]unit{{opts: opts, prof: p}}, 0)
}

func cpuGroup(opts Opts, p *workload.Profile) *traceGroup {
	return newTraceGroup([]unit{{opts: opts, prof: p, records: true}}, 0)
}

// heldBytes is the number of bytes g keeps.
func heldBytes(g *traceGroup) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.held
}

// TestPeakBytesHighWater: PeakBytes records the resident high-water
// mark, which survives the drop that later shrinks Bytes; a dropped
// group keeps nothing it builds afterwards.
func TestPeakBytesHighWater(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	g := testGroup(tinyOpts(), mustProfile(t, "gcc"))
	if _, err := g.data(); err != nil {
		t.Fatal(err)
	}
	high := TraceCacheStats()
	if high.PeakBytes < high.Bytes || high.PeakBytes == 0 || high.Bytes != heldBytes(g) {
		t.Fatalf("peak %d, resident %d, group holds %d", high.PeakBytes, high.Bytes, heldBytes(g))
	}
	g.drop()
	if _, err := g.data(); err != nil {
		t.Fatal(err)
	}
	c := TraceCacheStats()
	if c.PeakBytes != high.PeakBytes {
		t.Fatalf("peak moved from %d to %d", high.PeakBytes, c.PeakBytes)
	}
	if c.Bytes != 0 || heldBytes(g) != 0 {
		t.Fatalf("a dropped group left %d bytes resident, holding %d", c.Bytes, heldBytes(g))
	}
}

// TestPeakStaysWithinBudget: a stream is kept only if the resident
// bytes, counting it, fit the budget, so a stream-only campaign's
// resident high-water mark never exceeds it. Three groups alive at
// once under a budget for one and a half stream pairs must leave
// streams unkept; a two-worker campaign over the same profiles must
// stay within the budget too.
func TestPeakStaysWithinBudget(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "equake"), mustProfile(t, "crafty")}
	var largest int64
	for _, p := range profiles {
		dt, ft, err := materialize(p, opts.Instructions, opts.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, dt.sizeBytes()+ft.sizeBytes())
	}
	opts.TraceBytes = largest + largest/2
	var groups []*traceGroup
	for _, p := range profiles {
		g := testGroup(opts, p)
		groups = append(groups, g)
		if _, err := g.data(); err != nil {
			t.Fatal(err)
		}
	}
	c := TraceCacheStats()
	if c.Evictions == 0 {
		t.Fatalf("three groups under a budget for one and a half kept everything: %+v", c)
	}
	if c.PeakBytes > opts.TraceBytes {
		t.Fatalf("resident peak %d exceeded budget %d", c.PeakBytes, opts.TraceBytes)
	}
	for _, g := range groups {
		g.drop()
	}

	ResetTraceCache()
	ResetUnitMemo()
	opts.Workers = 2
	campaign := []Experiment{{ID: "d", Units: func(o Opts) []unit { return sweep{o, profiles, figureSpecs(), dSide}.units() }},
		{ID: "i", Units: func(o Opts) []unit { return sweep{o, profiles, figureSpecs(), iSide}.units() }}}
	if _, err := runUnits(opts, campaignUnits(opts, campaign)); err != nil {
		t.Fatal(err)
	}
	if c := TraceCacheStats(); c.PeakBytes > opts.TraceBytes || c.Bytes != 0 {
		t.Fatalf("campaign: resident peak %d over budget %d, or %d bytes left resident", c.PeakBytes, opts.TraceBytes, c.Bytes)
	}
}

// recordGroups runs a CPU-model-shaped grid campaign on a fresh unit
// memo: every unit of a profile's group fetches the record trace, and
// with streams set also asks for the data and fetch streams, so a
// tight budget leaves streams unkept while the record trace is in use.
func recordGroups(t *testing.T, opts Opts, profiles []*workload.Profile, streams bool) {
	t.Helper()
	ResetUnitMemo()
	g := grid[struct{}]{id: "records", opts: opts, profiles: profiles, configs: []string{"a", "b", "c"},
		run: func(tg *traceGroup, _ int) (struct{}, error) {
			if _, err := tg.records(); err != nil {
				return struct{}{}, err
			}
			if streams {
				if _, err := tg.data(); err != nil {
					return struct{}{}, err
				}
				if _, err := tg.fetch(opts.LineBytes); err != nil {
					return struct{}{}, err
				}
			}
			return struct{}{}, nil
		}}
	if _, err := runUnits(opts, g.units()); err != nil {
		t.Fatal(err)
	}
}

// TestRecordsNeverEvictedMidGroup: under a 1-byte budget no stream is
// kept, but a record trace stays for its group's lifetime: each
// profile's generator runs once, for all the group's units, and the
// unkept streams are re-extracted from the record trace.
func TestRecordsNeverEvictedMidGroup(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.TraceBytes = 1
	opts.Workers = 2
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "equake"), mustProfile(t, "mcf")}
	recordGroups(t, opts, profiles, true)
	c := TraceCacheStats()
	if c.Generations != uint64(len(profiles)) {
		t.Fatalf("%d generator runs for %d profiles; a record trace was lost mid-group: %+v",
			c.Generations, len(profiles), c)
	}
	if c.Evictions == 0 {
		t.Fatalf("a 1-byte budget kept every stream: %+v", c)
	}
	if c.Bytes != 0 {
		t.Fatalf("%d bytes outlived their groups", c.Bytes)
	}
}

// TestGroupEndRetiresEveryPayload: when a trace group ends, every
// payload it kept — the record trace, the data stream and the fetch
// streams at every line size — is released, and the resident byte
// count returns to zero. Inside the group, a record-marked grid's
// streams come from its record trace: one generator run per profile.
func TestGroupEndRetiresEveryPayload(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Workers = 2
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "swim")}
	ResetUnitMemo()
	g := grid[struct{}]{id: "payloads", opts: opts, profiles: profiles, configs: []string{"a", "b"}, records: true,
		run: func(tg *traceGroup, _ int) (struct{}, error) {
			if _, err := tg.data(); err != nil {
				return struct{}{}, err
			}
			if _, err := tg.fetch(64); err != nil {
				return struct{}{}, err
			}
			_, err := tg.records()
			return struct{}{}, err
		}}
	if _, err := runUnits(opts, g.units()); err != nil {
		t.Fatal(err)
	}
	c := TraceCacheStats()
	if c.Bytes != 0 {
		t.Fatalf("%d bytes outlived their groups", c.Bytes)
	}
	if c.Generations != uint64(len(profiles)) {
		t.Fatalf("%d generator runs for %d profiles; the streams should come from the record traces", c.Generations, len(profiles))
	}
}

// TestResidentExtractMatchesDirect: a stream miss extracts the stream
// from the group's record trace, or runs the generator straight into
// both streams; either source yields the same streams, at 32- and
// 64-byte lines.
func TestResidentExtractMatchesDirect(t *testing.T) {
	defer ResetTraceCache()
	p := mustProfile(t, "gcc")
	for _, lb := range []int{32, 64} {
		opts := tinyOpts()
		opts.LineBytes = lb
		direct := testGroup(opts, p)
		directData, err := direct.data()
		if err != nil {
			t.Fatal(err)
		}
		directFetch, err := direct.fetch(lb)
		if err != nil {
			t.Fatal(err)
		}
		ResetTraceCache()
		g := cpuGroup(opts, p)
		if _, err := g.records(); err != nil {
			t.Fatal(err)
		}
		data, err := g.data()
		if err != nil {
			t.Fatal(err)
		}
		fetch, err := g.fetch(lb)
		if err != nil {
			t.Fatal(err)
		}
		if c := TraceCacheStats(); c.Generations != 1 {
			t.Fatalf("line=%d: %d generator runs; the streams should come from the record trace", lb, c.Generations)
		}
		if !reflect.DeepEqual(data.accs, directData.accs) {
			t.Fatalf("line=%d: data stream extracted from records diverges from the direct build", lb)
		}
		if !reflect.DeepEqual(fetch.pcs, directFetch.pcs) {
			t.Fatalf("line=%d: fetch stream extracted from records diverges from the direct build", lb)
		}
	}
}

// oracleStreams runs materialize once and hands back both streams.
func oracleStreams(t *testing.T, p *workload.Profile, o Opts) (*dataTrace, *fetchTrace) {
	t.Helper()
	dt, ft, err := materialize(p, o.Instructions, o.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	return dt, ft
}

// TestSiblingWarmingMatchesOracle: a data-stream miss in a group that
// only replays streams runs materialize once and keeps the fetch
// stream at the group's line size too, so the next fetch request is a
// hit — no second generator run — and both match materialize exactly.
func TestSiblingWarmingMatchesOracle(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p := mustProfile(t, "gcc")
	wantData, wantFetch := oracleStreams(t, p, opts)
	g := testGroup(opts, p)
	dt, err := g.data()
	if err != nil {
		t.Fatal(err)
	}
	before := TraceCacheStats()
	ft, err := g.fetch(opts.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	after := TraceCacheStats()
	if !reflect.DeepEqual(dt.accs, wantData.accs) || !reflect.DeepEqual(ft.pcs, wantFetch.pcs) {
		t.Fatal("group streams diverge from materialize")
	}
	if after.Hits != before.Hits+1 || after.Generations != 1 {
		t.Fatalf("fetch after data: hits %d -> %d, %d generator runs; want one hit and one run",
			before.Hits, after.Hits, after.Generations)
	}
}

// TestTraceGroupConcurrentMatchesOracle races every payload request on
// one group: goroutines ask for the data stream, the fetch streams at
// 32 and 64 bytes and the record trace at once. Every payload must
// equal what materialize and generateRecords produce, and a group that
// runs the CPU model must run the generator exactly once. A group that
// only replays streams, asked concurrently for its data stream and its
// fetch stream at the group's line size, must run it exactly once too.
func TestTraceGroupConcurrentMatchesOracle(t *testing.T) {
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Instructions = 60_000
	p := mustProfile(t, "gcc")
	wantRecs, err := generateRecords(p, opts.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	wantData, want32 := oracleStreams(t, p, opts)
	_, want64, err := materialize(p, opts.Instructions, 64)
	if err != nil {
		t.Fatal(err)
	}
	wantFetch := map[int]*fetchTrace{32: want32, 64: want64}

	race := func(g *traceGroup, records bool, lines []int) {
		t.Helper()
		const callers = 3
		var wg sync.WaitGroup
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if dt, err := g.data(); err != nil || !reflect.DeepEqual(dt.accs, wantData.accs) {
					t.Errorf("data stream diverges from materialize (err %v)", err)
				}
			}()
			for _, lb := range lines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if ft, err := g.fetch(lb); err != nil || !reflect.DeepEqual(ft.pcs, wantFetch[lb].pcs) {
						t.Errorf("fetch stream at %d bytes diverges from materialize (err %v)", lb, err)
					}
				}()
			}
			if records {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if rt, err := g.records(); err != nil || !reflect.DeepEqual(rt.recs, wantRecs.recs) {
						t.Errorf("record trace diverges from generateRecords (err %v)", err)
					}
				}()
			}
		}
		wg.Wait()
	}

	ResetTraceCache()
	race(cpuGroup(opts, p), true, []int{32, 64})
	if c := TraceCacheStats(); c.Generations != 1 {
		t.Errorf("a group running the CPU model ran the generator %d times, want 1", c.Generations)
	}
	ResetTraceCache()
	race(testGroup(opts, p), false, []int{opts.LineBytes})
	if c := TraceCacheStats(); c.Generations != 1 {
		t.Errorf("a stream-only group ran the generator %d times for data and fetch@%d, want 1", c.Generations, opts.LineBytes)
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

// BenchmarkMaterialize times the generation layer on its own: one op
// runs the generator straight into both address streams for all 26
// profiles at 500k instructions and 32-byte lines.
func BenchmarkMaterialize(b *testing.B) {
	const n = 500_000
	for i := 0; i < b.N; i++ {
		for _, p := range workload.All() {
			if _, _, err := materialize(p, n, 32); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*26*n), "ns/instr")
}
