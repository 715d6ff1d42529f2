package experiment

import (
	"reflect"
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

// TestPeakBytesHighWater: PeakBytes records the resident high-water
// mark, which survives the evictions that later shrink Bytes.
func TestPeakBytesHighWater(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cachedData(opts, p); err != nil {
		t.Fatal(err)
	}
	high := TraceCacheStats()
	if high.PeakBytes < high.Bytes || high.PeakBytes == 0 {
		t.Fatalf("peak %d below resident %d", high.PeakBytes, high.Bytes)
	}
	opts.TraceBytes = 1
	if _, err := cachedData(opts, withSeed(p, 1)); err != nil {
		t.Fatal(err)
	}
	c := TraceCacheStats()
	if c.PeakBytes < high.PeakBytes {
		t.Fatalf("peak shrank from %d to %d", high.PeakBytes, c.PeakBytes)
	}
	if c.Bytes >= c.PeakBytes {
		t.Fatalf("tight budget left resident %d at peak %d", c.Bytes, c.PeakBytes)
	}
}

// TestPeakStaysWithinBudget: eviction makes room before a new entry is
// accounted, so the resident high-water mark never exceeds the budget
// as long as completed entries exist to evict.
func TestPeakStaysWithinBudget(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	names := []string{"gcc", "equake", "crafty"}
	// A budget that fits the largest benchmark's stream pair plus
	// change, but not two pairs.
	var largest int64
	for _, name := range names {
		ResetTraceCache()
		if _, err := cachedData(opts, mustProfile(t, name)); err != nil {
			t.Fatal(err)
		}
		largest = max(largest, TraceCacheStats().Bytes)
	}
	ResetTraceCache()
	opts.TraceBytes = largest + largest/2
	for _, name := range names {
		if _, err := cachedData(opts, mustProfile(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	c := TraceCacheStats()
	if c.Evictions == 0 {
		t.Fatalf("three benchmarks under a budget for one and a half evicted nothing: %+v", c)
	}
	if c.PeakBytes > opts.TraceBytes {
		t.Fatalf("resident peak %d exceeded budget %d", c.PeakBytes, opts.TraceBytes)
	}
}

// recordGroups runs a CPU-model-shaped grid campaign on a fresh unit
// memo: every unit of a profile's group fetches the record trace, and
// with streams set also asks for the data and fetch streams mid-group,
// so a tight budget evicts streams while the record trace is in use.
func recordGroups(t *testing.T, opts Opts, profiles []*workload.Profile, streams bool) {
	t.Helper()
	ResetUnitMemo()
	g := grid[struct{}]{id: "records", opts: opts, profiles: profiles, configs: []string{"a", "b", "c"},
		run: func(p *workload.Profile, c int) (struct{}, error) {
			if _, err := cachedRecords(opts, p); err != nil {
				return struct{}{}, err
			}
			if streams {
				if _, err := cachedData(opts, p); err != nil {
					return struct{}{}, err
				}
				if _, err := cachedFetch(opts, p); err != nil {
					return struct{}{}, err
				}
			}
			return struct{}{}, nil
		}}
	if _, err := runUnits(opts, g.units()); err != nil {
		t.Fatal(err)
	}
}

// residentRecords counts the record traces the shared cache holds.
func residentRecords() int {
	sharedTraces.mu.Lock()
	defer sharedTraces.mu.Unlock()
	n := 0
	for k := range sharedTraces.entries {
		n += btoi(k.kind == kindRecords)
	}
	return n
}

// TestRecordsNeverEvictedMidGroup: under a 1-byte budget every stream
// is dropped as soon as it is cached, but a record trace stays
// resident until its group ends: each profile's generator runs once,
// for all the group's units, and the dropped streams are re-extracted
// from the record trace.
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
		t.Fatalf("a 1-byte budget dropped nothing: %+v", c)
	}
	if n := residentRecords(); n != 0 {
		t.Fatalf("%d record traces outlived their groups", n)
	}
}

// TestGroupEndRetiresEveryPayload: when a trace group ends, every
// payload of its trace leaves the cache — the record trace, the data
// stream and the fetch streams at every line size — and the resident
// byte count returns to zero. Inside the group, a record-marked grid's
// streams come from its record trace: one generator run per profile.
func TestGroupEndRetiresEveryPayload(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Workers = 2
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "swim")}
	ResetUnitMemo()
	wide := opts
	wide.LineBytes = 64
	g := grid[struct{}]{id: "payloads", opts: opts, profiles: profiles, configs: []string{"a", "b"}, records: true,
		run: func(p *workload.Profile, c int) (struct{}, error) {
			if _, err := cachedData(opts, p); err != nil {
				return struct{}{}, err
			}
			if _, err := cachedFetch(wide, p); err != nil {
				return struct{}{}, err
			}
			_, err := cachedRecords(opts, p)
			return struct{}{}, err
		}}
	if _, err := runUnits(opts, g.units()); err != nil {
		t.Fatal(err)
	}
	c := TraceCacheStats()
	if n := residentTraces(); c.Bytes != 0 || n != 0 {
		t.Fatalf("payloads of %d traces (%d bytes) outlived their groups", n, c.Bytes)
	}
	if c.Generations != uint64(len(profiles)) {
		t.Fatalf("%d generator runs for %d profiles; the streams should come from the record traces", c.Generations, len(profiles))
	}
}

// TestResidentExtractMatchesDirect: a stream miss extracts both streams
// from a resident record trace, or runs the generator straight into
// them; either source yields the same streams, at 32- and 64-byte
// lines.
func TestResidentExtractMatchesDirect(t *testing.T) {
	defer ResetTraceCache()
	p := mustProfile(t, "gcc")
	for _, lb := range []int{32, 64} {
		opts := tinyOpts()
		opts.LineBytes = lb
		ResetTraceCache()
		directData, err := cachedData(opts, p)
		if err != nil {
			t.Fatal(err)
		}
		directFetch, err := cachedFetch(opts, p)
		if err != nil {
			t.Fatal(err)
		}
		ResetTraceCache()
		mustRecords(t, opts, p)
		data, err := cachedData(opts, p)
		if err != nil {
			t.Fatal(err)
		}
		fetch, err := cachedFetch(opts, p)
		if err != nil {
			t.Fatal(err)
		}
		if c := TraceCacheStats(); c.Generations != 1 {
			t.Fatalf("line=%d: %d generator runs; the streams should come from the resident record trace", lb, c.Generations)
		}
		if !reflect.DeepEqual(data.accs, directData.accs) {
			t.Fatalf("line=%d: data stream extracted from records diverges from the direct build", lb)
		}
		if !reflect.DeepEqual(fetch.pcs, directFetch.pcs) {
			t.Fatalf("line=%d: fetch stream extracted from records diverges from the direct build", lb)
		}
	}
}

// mustRecords builds or fetches p's record trace.
func mustRecords(t *testing.T, opts Opts, p *workload.Profile) {
	t.Helper()
	if _, err := cachedRecords(opts, p); err != nil {
		t.Fatal(err)
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
