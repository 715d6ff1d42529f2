package experiment

import (
	"reflect"
	"sync"
	"testing"

	"bcache/internal/workload"
)

// Differential coverage for the sibling-warming path: a cachedData miss
// builds the fetch stream in the same generator pass and caches it
// under the same singleflight, and the sibling must be bit-identical to
// what the generator-driven materialize oracle produces. The
// concurrency half races data and fetch requests under the
// race-robust gate (-race over ./internal/experiment/...).

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

// TestSiblingWarmingConcurrent races data and fetch requests: for each
// profile they run concurrently from several goroutines, so a request
// for the sibling may arrive while its pair is being built. Every
// returned stream must match the per-profile oracle, and the pair is
// one singleflight: each profile's generator runs once.
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

	c := TraceCacheStats()
	if c.Generations != uint64(len(profiles)) {
		t.Fatalf("generator ran %d times for %d profiles; want one run each",
			c.Generations, len(profiles))
	}
}
