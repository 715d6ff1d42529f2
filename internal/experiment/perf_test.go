package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcache/internal/workload"
)

// TestTraceCacheSingleflight: concurrent requests for the same stream
// build it exactly once and all receive the same immutable trace.
func TestTraceCacheSingleflight(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	traces := make([]*dataTrace, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			at, err := cachedData(opts, p)
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = at
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("caller %d got a distinct trace instance", i)
		}
	}
	c := TraceCacheStats()
	// One data-trace build straight from the generator (the fetch
	// byproduct is published, not missed).
	if c.Misses != 1 || c.Hits != callers-1 || c.Generations != 1 {
		t.Fatalf("counters = %+v, want 1 miss, %d hits, 1 generation", c, callers-1)
	}
	if c.Bytes < traces[0].sizeBytes() {
		t.Fatalf("accounted %d bytes, access trace alone holds %d", c.Bytes, traces[0].sizeBytes())
	}
}

// TestTraceCacheKeying: a shifted seed or different instruction count is
// a different stream; a repeat request is not.
func TestTraceCacheKeying(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p, err := workload.ByName("equake")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if a2, _ := cachedData(opts, p); a2 != a1 {
		t.Fatal("identical request rebuilt the trace")
	}
	if as, _ := cachedData(opts, withSeed(p, 1)); as == a1 {
		t.Fatal("shifted seed shared the canonical trace")
	}
	shorter := opts
	shorter.Instructions /= 2
	if an, _ := cachedData(shorter, p); an == a1 {
		t.Fatal("different instruction count shared the trace")
	}
	c := TraceCacheStats()
	// Three distinct data keys, each generated once.
	if c.Misses != 3 || c.Hits != 1 || c.Generations != 3 {
		t.Fatalf("counters = %+v, want 3 misses, 1 hit, 3 generations", c)
	}
}

// TestTraceCacheEviction: a budget below the working set evicts LRU
// entries to spill files, the accounting follows, and an evicted trace
// comes back from disk — bit-identical — without rerunning the
// generator.
func TestTraceCacheEviction(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	opts.TraceBytes = a1.sizeBytes() + a1.sizeBytes()/2 // below two data streams
	if _, err := cachedData(opts, withSeed(p, 1)); err != nil {
		t.Fatal(err)
	}
	c := TraceCacheStats()
	if c.Evictions == 0 || c.Spills == 0 {
		t.Fatalf("no spill under tight budget: %+v", c)
	}
	if c.Bytes > opts.TraceBytes {
		t.Fatalf("cache holds %d bytes over budget %d", c.Bytes, opts.TraceBytes)
	}
	if c.SpillBytes == 0 {
		t.Fatalf("spilled entries report no disk bytes: %+v", c)
	}
	// The canonical trace was evicted; re-requesting it reloads the
	// spill file instead of regenerating the stream.
	gens := c.Generations
	a2, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	c = TraceCacheStats()
	if c.Reloads == 0 {
		t.Fatalf("evicted trace was not reloaded from disk: %+v", c)
	}
	if c.Generations != gens {
		t.Fatalf("reload reran the generator (%d generations, want %d)", c.Generations, gens)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("reloaded trace differs from the original")
	}
}

// TestTraceCacheBypass: a negative budget disables memoization entirely.
func TestTraceCacheBypass(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.TraceBytes = -1
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("bypass mode returned a shared instance")
	}
	if c := TraceCacheStats(); c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("bypass mode touched the shared cache: %+v", c)
	}
}

// TestSuiteZeroDuplicateGeneration: repeating the full miss-rate fan-out
// never regenerates a stream — misses equal the number of distinct
// (profile, seed) keys regardless of specs, sides, or repetition.
func TestSuiteZeroDuplicateGeneration(t *testing.T) {
	ResetTraceCache()
	ResetUnitMemo() // memoized units skip trace fetches entirely
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Seeds = 2
	profiles := workload.All()
	for round := 0; round < 2; round++ {
		for _, s := range []side{dSide, iSide} {
			if _, err := missRates(sweep{opts, profiles, figureSpecs(), s}); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := TraceCacheStats()
	want := uint64(len(profiles) * opts.Seeds)
	if c.Generations != want {
		t.Fatalf("generated %d streams, want %d (duplicate generation)", c.Generations, want)
	}
	// One data build per distinct key, nothing more: no record trace is
	// built, and the iSide round's fetch streams were published as
	// byproducts of the dSide builds, so they hit instead of missing.
	if c.Misses != want {
		t.Fatalf("built %d entries, want %d (duplicate builds)", c.Misses, want)
	}
	if c.Hits == 0 {
		t.Fatal("cache recorded no hits across repeated suite runs")
	}
}

// TestTimedMemoShared: fig8 and fig9 request the identical timed sweep;
// the second request must reuse the first's simulations.
func TestTimedMemoShared(t *testing.T) {
	ResetTimedCache()
	defer ResetTimedCache()
	opts := tinyOpts()
	opts.Instructions = 40_000
	r1, err := timedResults(opts, timedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := timedResults(opts, timedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(r1).Pointer() != reflect.ValueOf(r2).Pointer() {
		t.Fatal("identical timed sweep was recomputed")
	}
	bigger := opts
	bigger.Instructions *= 2
	r3, err := timedResults(bigger, timedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(r3).Pointer() == reflect.ValueOf(r1).Pointer() {
		t.Fatal("different opts shared a memo entry")
	}
}

// TestTimedResultsHonorUnitTimeout: the timed sweep's units run under
// Opts.UnitTimeout like every other scheduled unit.
func TestTimedResultsHonorUnitTimeout(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Instructions = 2_000 // abandoned units finish in the background
	opts.UnitTimeout = time.Nanosecond
	before := runtime.NumGoroutine()
	_, err := runTimedResults(opts, timedSpecs())
	// Let the abandoned units finish, so they cannot move the shared
	// trace-cache counters under a later test.
	for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if !errors.Is(err, ErrUnitTimeout) {
		t.Fatalf("want ErrUnitTimeout, got %v", err)
	}
}

// TestRunUnitsCoversAll: every index is executed exactly once, with
// grouping off (Group 0 and 1), with a ragged last group, and with more
// workers than groups.
func TestRunUnitsCoversAll(t *testing.T) {
	for _, tc := range []struct{ n, workers, group int }{
		{1000, 8, 0},
		{50, 4, 1},
		{23, 3, 5}, // last group holds 3 units
		{10, 8, 4}, // 8 workers, 3 groups
		{1, 4, 6},  // one group, shorter than its size
	} {
		seen := make([]atomic.Int32, tc.n)
		err := runUnitsCtl(tc.n, tc.workers, unitOpts{Group: tc.group}, func(i int) (func(), error) {
			seen[i].Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("%+v: unit %d ran %d times", tc, i, got)
			}
		}
	}
}

// TestRunUnitsSurvivesFailure: a failure costs that one unit, not the
// rest of the run — every sibling still executes, and the failure is
// reported.
func TestRunUnitsSurvivesFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := runUnits(1000, 1, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	if got := ran.Load(); got != 1000 {
		t.Fatalf("ran %d units, want all 1000 despite unit 3 failing", got)
	}
}

// TestRunUnitsJoinsConcurrentErrors: two workers failing together are
// both reported instead of one being dropped.
func TestRunUnitsJoinsConcurrentErrors(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(2)
	err := runUnits(2, 2, func(i int) error {
		gate.Done()
		gate.Wait() // both workers fail simultaneously
		return fmt.Errorf("unit %d failed", i)
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	for i := 0; i < 2; i++ {
		want := fmt.Sprintf("unit %d failed", i)
		found := false
		for _, e := range multiUnwrap(err) {
			if strings.Contains(e.Error(), want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("joined error %q lost %q", err, want)
		}
	}
}

// multiUnwrap flattens an errors.Join result (or a single error).
func multiUnwrap(err error) []error {
	if m, ok := err.(interface{ Unwrap() []error }); ok {
		return m.Unwrap()
	}
	return []error{err}
}

// TestForEachProfileWrapsName: errors carry the failing profile's name.
func TestForEachProfileWrapsName(t *testing.T) {
	profiles := workload.All()
	boom := errors.New("boom")
	err := forEachProfile(profiles, 2, func(p *workload.Profile) error {
		if p.Name == profiles[0].Name {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
	want := profiles[0].Name + ": boom"
	found := false
	for _, e := range multiUnwrap(err) {
		if strings.Contains(e.Error(), want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("error %q does not name the failing profile (%q)", err, want)
	}
}
