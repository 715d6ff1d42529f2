package experiment

import (
	"reflect"
	"sync"
	"testing"

	"bcache/internal/workload"
)

// Differential coverage for the sibling-warming path: a cachedData miss
// builds the fetch stream as a byproduct and publishes it with
// putIfAbsent, and the byproduct must be bit-identical to what the
// generator-driven materialize oracle produces — whether it came
// straight from the generator or was extracted from a record trace
// reloaded off a spill file. The concurrency half runs the publication
// against racing gets under the race-robust gate (-race over
// ./internal/experiment/...).

func siblingOpts() Opts {
	o := DefaultOpts()
	o.Instructions = 60_000
	o.TraceBytes = 1 << 30
	return o
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

// TestSiblingWarmingMatchesOracle: the fetch stream published as a
// byproduct of a cachedData build serves the next cachedFetch from
// memory — no second generator run — and matches materialize exactly.
func TestSiblingWarmingMatchesOracle(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := siblingOpts()
	p := mustProfile(t, "gcc")
	wantData, wantFetch := oracleStreams(t, p, opts)

	dt, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dt.accs, wantData.accs) {
		t.Fatal("cachedData stream diverges from materialize")
	}

	// The byproduct must already be resident before any fetch request.
	sharedTraces.mu.Lock()
	_, warmed := sharedTraces.entries[fetchTraceKey(opts, p)]
	sharedTraces.mu.Unlock()
	if !warmed {
		t.Fatal("cachedData did not publish the fetch sibling")
	}

	before := TraceCacheStats()
	ft, err := cachedFetch(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ft.pcs, wantFetch.pcs) {
		t.Fatal("sibling-warmed fetch stream diverges from materialize")
	}
	after := TraceCacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("warmed fetch was not a memory hit: hits %d -> %d", before.Hits, after.Hits)
	}
	if after.Generations != 1 {
		t.Fatalf("generator ran %d times; the sibling should have prevented a second run", after.Generations)
	}
}

// TestSiblingFromSpilledRecords: under a starvation budget, publishing
// the data sibling of a fetch build evicts and spills the record trace
// both streams were extracted from. Once the CPU model's request has
// reloaded the record trace, a fetch at a new line size extracts from
// the decoded copy. The extracted stream must still match the oracle,
// and the byproduct for an already-spilled sibling must be dropped,
// not double-published.
func TestSiblingFromSpilledRecords(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := siblingOpts()
	opts.TraceBytes = 1 // evict-everything pressure; > 0 keeps the cache on
	p := mustProfile(t, "equake")

	mustRecords(t, opts, p)
	if _, err := cachedFetch(opts, p); err != nil {
		t.Fatal(err)
	}
	sharedTraces.mu.Lock()
	recordsSpilled := sharedTraces.spilled[recordTraceKey(opts, p)] != nil
	sharedTraces.mu.Unlock()
	if !recordsSpilled {
		t.Fatalf("starvation budget did not spill the record trace: %+v", TraceCacheStats())
	}
	mustRecords(t, opts, p)

	wide := opts
	wide.LineBytes = 64
	wantData, wantFetch := oracleStreams(t, p, wide)
	before := TraceCacheStats()
	ft, err := cachedFetch(wide, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ft.pcs, wantFetch.pcs) {
		t.Fatal("fetch stream extracted from spilled records diverges from materialize")
	}
	c := TraceCacheStats()
	if c.Reloads == 0 {
		t.Fatalf("the record trace was never reloaded from its spill file: %+v", c)
	}
	if c.Generations != 1 {
		t.Fatalf("generator ran %d times; the spill file should have fed the extraction", c.Generations)
	}
	// Only the record trace makes room for the new fetch entry; a
	// published data sibling would have been evicted too.
	if got := c.Evictions - before.Evictions; got != 1 {
		t.Fatalf("%d evictions; the spilled data sibling was published again", got)
	}

	dt, err := cachedData(wide, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dt.accs, wantData.accs) {
		t.Fatal("data stream reloaded from spill diverges from materialize")
	}
}

// TestSiblingWarmingConcurrent races byproduct publications against
// in-flight gets: for each profile, data and fetch requests run
// concurrently from several goroutines, so putIfAbsent lands while the
// sibling's own build may be in flight (the no-singleflight drop path).
// Every returned stream must match the per-profile oracle regardless of
// which path produced it.
func TestSiblingWarmingConcurrent(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := siblingOpts()

	profiles := workload.All()[:3]
	type want struct {
		data  *dataTrace
		fetch *fetchTrace
	}
	wants := make(map[string]want, len(profiles))
	for _, p := range profiles {
		d, f := oracleStreams(t, p, opts)
		wants[p.Name] = want{data: d, fetch: f}
	}

	const callers = 4
	var wg sync.WaitGroup
	for _, p := range profiles {
		for i := 0; i < callers; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				dt, err := cachedData(opts, p)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(dt.accs, wants[p.Name].data.accs) {
					t.Errorf("%s: concurrent cachedData diverges from materialize", p.Name)
				}
			}()
			go func() {
				defer wg.Done()
				ft, err := cachedFetch(opts, p)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(ft.pcs, wants[p.Name].fetch.pcs) {
					t.Errorf("%s: concurrent cachedFetch diverges from materialize", p.Name)
				}
			}()
		}
	}
	wg.Wait()

	// A data and a fetch miss of one profile may race each other, but
	// each stream key builds once.
	c := TraceCacheStats()
	if c.Generations < uint64(len(profiles)) || c.Generations > uint64(2*len(profiles)) {
		t.Fatalf("generator ran %d times for %d profiles; want one or two runs each",
			c.Generations, len(profiles))
	}
}
