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

// TestTraceCacheSingleflight: concurrent requests for one group's
// stream build it exactly once and all receive the same immutable
// trace.
func TestTraceCacheSingleflight(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	g := testGroup(tinyOpts(), mustProfile(t, "gcc"))
	const callers = 8
	traces := make([]*dataTrace, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			at, err := g.data()
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
	// One data-stream build straight from the generator (the fetch
	// stream built alongside it is kept, not missed).
	if c.Misses != 1 || c.Hits != callers-1 || c.Generations != 1 {
		t.Fatalf("counters = %+v, want 1 miss, %d hits, 1 generation", c, callers-1)
	}
	if c.Bytes < traces[0].sizeBytes() {
		t.Fatalf("accounted %d bytes, access trace alone holds %d", c.Bytes, traces[0].sizeBytes())
	}
}

// TestTraceCacheKeying: one group returns one stream instance to every
// request, and groups on a shifted seed or a different instruction
// count build distinct ones.
func TestTraceCacheKeying(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p := mustProfile(t, "equake")
	shorter := opts
	shorter.Instructions /= 2
	g := testGroup(opts, p)
	a1, err := g.data()
	if err != nil {
		t.Fatal(err)
	}
	if a2, _ := g.data(); a2 != a1 {
		t.Fatal("a repeat request rebuilt the stream")
	}
	as, _ := testGroup(opts, withSeed(p, 1)).data()
	an, _ := testGroup(shorter, p).data()
	if as == a1 || an == a1 || as == an {
		t.Fatal("groups of distinct traces shared a stream")
	}
	c := TraceCacheStats()
	// Three groups, each generated once.
	if c.Misses != 3 || c.Hits != 1 || c.Generations != 3 {
		t.Fatalf("counters = %+v, want 3 misses, 1 hit, 3 generations", c)
	}
}

// TestTraceCacheEviction: a stream that would take the resident bytes
// past the budget goes to its requester and is not kept, the
// accounting follows, and the group's next request rebuilds it —
// bit-identically — with one more generator run.
func TestTraceCacheEviction(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p := mustProfile(t, "gcc")
	dt, ft, err := materialize(p, opts.Instructions, opts.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Room for one group's stream pair, not two.
	opts.TraceBytes = dt.sizeBytes() + ft.sizeBytes() + dt.sizeBytes()/2
	if _, err := testGroup(opts, p).data(); err != nil {
		t.Fatal(err)
	}
	g := testGroup(opts, withSeed(p, 1))
	a1, err := g.data()
	if err != nil {
		t.Fatal(err)
	}
	c := TraceCacheStats()
	if c.Evictions == 0 || heldBytes(g) != 0 {
		t.Fatalf("a stream over budget was kept: %+v, group holds %d", c, heldBytes(g))
	}
	if c.Bytes > opts.TraceBytes {
		t.Fatalf("%d bytes resident over budget %d", c.Bytes, opts.TraceBytes)
	}
	if c.Spills != 0 || c.SpillBytes != 0 || c.Reloads != 0 {
		t.Fatalf("an unkept stream reached disk: %+v", c)
	}
	a2, err := g.data()
	if err != nil {
		t.Fatal(err)
	}
	if after := TraceCacheStats(); after.Generations != c.Generations+1 {
		t.Fatalf("unkept stream: %d generations, want %d", after.Generations, c.Generations+1)
	}
	if a2 == a1 || !reflect.DeepEqual(a1, a2) {
		t.Fatal("rebuilt stream is the first instance or differs from it")
	}
}

// TestTraceCacheBypass: a negative budget keeps nothing.
func TestTraceCacheBypass(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.TraceBytes = -1
	g := testGroup(opts, mustProfile(t, "gcc"))
	a1, err := g.data()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := g.data()
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("bypass mode returned a shared instance")
	}
	if c := TraceCacheStats(); c.Hits != 0 || c.Misses != 0 || c.Bytes != 0 {
		t.Fatalf("bypass mode kept a payload: %+v", c)
	}
}

// TestSuiteZeroDuplicateGeneration: one trace-major campaign over the
// full miss-rate fan-out generates each trace once — generations equal
// the number of distinct (profile, seed) keys regardless of specs or
// sides — and a repeat of it takes every result from the memo.
func TestSuiteZeroDuplicateGeneration(t *testing.T) {
	ResetTraceCache()
	ResetUnitMemo() // memoized units skip trace fetches entirely
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Seeds = 2
	profiles := workload.All()
	sweeps := []Experiment{
		{ID: "d", Units: func(o Opts) []unit { return sweep{o, profiles, figureSpecs(), dSide}.units() }},
		{ID: "i", Units: func(o Opts) []unit { return sweep{o, profiles, figureSpecs(), iSide}.units() }},
	}
	for round := 0; round < 2; round++ {
		if _, err := runUnits(opts, campaignUnits(opts, sweeps)); err != nil {
			t.Fatal(err)
		}
	}
	c := TraceCacheStats()
	want := uint64(len(profiles) * opts.Seeds)
	if c.Generations != want {
		t.Fatalf("generated %d streams, want %d (duplicate generation)", c.Generations, want)
	}
	// One data build per distinct key, nothing more: no record trace is
	// built, and the I-side units' fetch streams were cached as siblings
	// of the D-side builds, so they hit instead of missing.
	if c.Misses != want {
		t.Fatalf("built %d entries, want %d (duplicate builds)", c.Misses, want)
	}
	if c.Hits == 0 {
		t.Fatal("cache recorded no hits across the campaign")
	}
}

// TestTimedResultsHonorUnitTimeout: the timed sweep's units run under
// Opts.UnitTimeout like every other scheduled unit.
func TestTimedResultsHonorUnitTimeout(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	ResetUnitMemo()
	opts := tinyOpts()
	opts.Instructions = 2_000 // abandoned units finish in the background
	opts.UnitTimeout = time.Nanosecond
	before := runtime.NumGoroutine()
	_, err := runUnits(opts, timedGrid(opts).units())
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
// grouping off (group size 0 and 1), with a ragged last group, and with more
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
		err := runUnitsCtl(tc.n, tc.workers, unitOpts{Groups: fixedGroups(tc.n, tc.group)}, func(i int) (func(), error) {
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
	err := runUnitsCtl(1000, 1, unitOpts{}, func(i int) (func(), error) {
		ran.Add(1)
		if i == 3 {
			return nil, boom
		}
		return nil, nil
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
	err := runUnitsCtl(2, 2, unitOpts{}, func(i int) (func(), error) {
		gate.Done()
		gate.Wait() // both workers fail simultaneously
		return nil, fmt.Errorf("unit %d failed", i)
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

// TestProfileUnitsWrapsName: a failing grid unit's error names its
// "<profile>/<config>", and the sibling units' results still arrive.
func TestProfileUnitsWrapsName(t *testing.T) {
	ResetUnitMemo()
	profiles := workload.All()[:3]
	boom := errors.New("boom")
	g := grid[int]{id: "test", opts: tinyOpts(), profiles: profiles, configs: []string{"a", "b"},
		run: func(tg *traceGroup, c int) (int, error) {
			if tg.prof.Name == profiles[1].Name && c == 1 {
				return 0, boom
			}
			return c + 1, nil
		}}
	res, err := runUnits(g.opts, g.units())
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
	want := profiles[1].Name + "/b: boom"
	found := false
	for _, e := range multiUnwrap(err) {
		if strings.Contains(e.Error(), want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("error %q does not name the failing unit (%q)", err, want)
	}
	if _, err := g.collect(res); err == nil {
		t.Error("collect succeeded with a unit missing")
	}
	for pi, p := range profiles {
		for c := 0; c < 2; c++ {
			got, err := result[int](res, g.key(p, c))
			if pi == 1 && c == 1 {
				if err == nil {
					t.Errorf("failed unit [%d][%d] has result %d", pi, c, got)
				}
				continue
			}
			if err != nil || got != c+1 {
				t.Errorf("result [%d][%d] = %d, %v; want %d", pi, c, got, err, c+1)
			}
		}
	}
}
