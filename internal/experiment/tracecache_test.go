package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"bcache/internal/trace"
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

// TestSpillRoundTrip: every payload kind survives a spill/reload cycle
// bit-identically, with the reload checksum matching the build-time one.
func TestSpillRoundTrip(t *testing.T) {
	p := workload.All()[0]
	rt, err := generateRecords(p, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	dt := extractData(rt)
	ft := extractFetch(rt, 32)
	dir := t.TempDir()

	for _, tc := range []struct {
		name string
		val  spillable
		load func(*trace.CompressedReader) (spillable, error)
	}{
		{"data", dt, func(r *trace.CompressedReader) (spillable, error) {
			return loadDataTrace(r, p.Name)
		}},
		{"fetch", ft, func(r *trace.CompressedReader) (spillable, error) {
			return loadFetchTrace(r, p.Name)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".bct")
			size, err := writeSpill(path, tc.val)
			if err != nil {
				t.Fatal(err)
			}
			if size <= 0 {
				t.Fatal("spill file reports no bytes")
			}
			got, err := reloadSpill(&spillSlot{path: path, sum: tc.val.checksum(), size: size}, tc.load, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.val) {
				t.Fatal("reloaded payload differs from the original")
			}
		})
	}
}

// TestSpilledTracesSorted: the spill-index listing is emitted in sorted
// order regardless of map iteration, and cleanup empties it along with
// the on-disk directory.
func TestSpilledTracesSorted(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.TraceBytes = 1 // evict-and-spill everything as soon as it is built
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 3; seed++ {
		if _, err := cachedData(opts, withSeed(p, seed)); err != nil {
			t.Fatal(err)
		}
	}
	keys := SpilledTraces()
	if len(keys) == 0 {
		t.Fatal("nothing spilled under a 1-byte budget")
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("spill listing not sorted: %q", keys)
	}
	sharedTraces.mu.Lock()
	dir := sharedTraces.dir
	sharedTraces.mu.Unlock()
	CleanupTraceSpill()
	if got := SpilledTraces(); len(got) != 0 {
		t.Fatalf("cleanup left %d spill entries", len(got))
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("cleanup left the spill directory behind")
	}
	if c := TraceCacheStats(); c.SpillBytes != 0 {
		t.Fatalf("cleanup left SpillBytes=%d", c.SpillBytes)
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

// residentRecords counts the record traces the shared cache holds in
// memory and on disk.
func residentRecords() (mem, disk int) {
	sharedTraces.mu.Lock()
	defer sharedTraces.mu.Unlock()
	for k := range sharedTraces.entries {
		mem += btoi(k.kind == kindRecords)
	}
	for k := range sharedTraces.spilled {
		disk += btoi(k.kind == kindRecords)
	}
	return mem, disk
}

// TestRecordsNeverEvictedMidGroup: under a 1-byte budget every stream
// is evicted and spilled as soon as it is published, but a record trace
// stays resident until its group ends: each profile's generator runs
// once, for all the group's units, and no record trace is spilled.
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
	if c.Spills == 0 {
		t.Fatalf("a 1-byte budget spilled nothing: %+v", c)
	}
	if mem, disk := residentRecords(); mem+disk != 0 {
		t.Fatalf("record traces outlived their groups: %d resident, %d spilled", mem, disk)
	}
}

// TestRetiredGroupPublishesStreams: when a record group ends, its record
// trace leaves the cache and the profile's data and fetch streams take
// its place, extracted from it and equal to materialize's.
func TestRetiredGroupPublishesStreams(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Workers = 2
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "swim")}
	recordGroups(t, opts, profiles, false)
	if mem, _ := residentRecords(); mem != 0 {
		t.Fatalf("%d record traces outlived their groups", mem)
	}
	for _, p := range profiles {
		wantData, wantFetch, err := materialize(p, opts.Instructions, opts.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		sharedTraces.mu.Lock()
		de, fe := sharedTraces.entries[dataTraceKey(opts, p)], sharedTraces.entries[fetchTraceKey(opts, p)]
		sharedTraces.mu.Unlock()
		if de == nil || fe == nil {
			t.Fatalf("%s: retiring the record trace left data %v, fetch %v resident", p.Name, de != nil, fe != nil)
		}
		if !reflect.DeepEqual(de.val.(*dataTrace).accs, wantData.accs) {
			t.Fatalf("%s: published data stream diverges from materialize", p.Name)
		}
		if !reflect.DeepEqual(fe.val.(*fetchTrace).pcs, wantFetch.pcs) {
			t.Fatalf("%s: published fetch stream diverges from materialize", p.Name)
		}
	}
	if c := TraceCacheStats(); c.Generations != uint64(len(profiles)) {
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

// TestSpillNamesDistinct guards the spill naming scheme: distinct keys
// must map to distinct file names.
func TestSpillNamesDistinct(t *testing.T) {
	a := traceKey{kind: kindData, name: "gcc", seed: 1, instructions: 100}
	b := a
	b.kind = kindRecords
	c := a
	c.kind = kindFetch
	c.lineBytes = 32
	if spillName(a) == spillName(b) || spillName(a) == spillName(c) || spillName(b) == spillName(c) {
		t.Fatal("distinct keys share a spill file name")
	}
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
