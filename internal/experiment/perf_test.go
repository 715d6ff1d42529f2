package experiment

import (
	"bytes"
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

// countingGrid is a grid over profiles whose every config counts the
// data accesses its engine is fed, and fails (config fail, after the
// pass) or panics in feed (config panic) when asked to.
func countingGrid(opts Opts, profiles []*workload.Profile, configs []string) grid[int] {
	return grid[int]{id: "count", opts: opts, profiles: profiles, configs: configs,
		run: func(_ *workload.Profile, c int) (engine[int], error) {
			n := 0
			return engine[int]{feed: func(ch *chunk) {
				if configs[c] == "panic" && n > 0 {
					panic("engine blew up mid-pass")
				}
				n += len(ch.data)
			}, results: func() (int, error) {
				if configs[c] == "fail" {
					return 0, errors.New("boom")
				}
				return n, nil
			}}, nil
		}}
}

// TestTraceCacheSingleflight: every unit of a group is fed from the
// group's one pass: eight units on one trace run the generator once,
// and each sees the whole data stream.
func TestTraceCacheSingleflight(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Workers = 4
	p := mustProfile(t, "gcc")
	g := countingGrid(opts, []*workload.Profile{p}, []string{"a", "b", "c", "d", "e", "f", "g", "h"})
	res, err := runUnits(opts, g.units())
	if err != nil {
		t.Fatal(err)
	}
	wantData, _ := materialize(t, p, opts.Instructions, opts.LineBytes)
	runs, err := g.collect(res)
	if err != nil {
		t.Fatal(err)
	}
	for c, n := range runs[0] {
		if n != len(wantData) {
			t.Fatalf("unit %d was fed %d data accesses, the trace has %d", c, n, len(wantData))
		}
	}
	if c := TraceCacheStats(); c.Generations != 1 {
		t.Fatalf("counters = %+v, want 1 pass", c)
	}
}

// TestTraceCacheKeying: units on a shifted seed or a different
// instruction count are other traces: each group runs its own pass.
func TestTraceCacheKeying(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p := mustProfile(t, "equake")
	shorter := opts
	shorter.Instructions /= 2
	var us []unit
	for k, g := range []grid[int]{countingGrid(opts, []*workload.Profile{p}, []string{"a", "b"}),
		countingGrid(opts, []*workload.Profile{withSeed(p, 1)}, []string{"a", "b"}),
		countingGrid(shorter, []*workload.Profile{p}, []string{"a"})} {
		g.id = fmt.Sprintf("count%d", k) // grid keys do not name the seed
		us = append(us, g.units()...)
	}
	if len(groupStarts(us)) != 3 {
		t.Fatalf("%d groups, want 3", len(groupStarts(us)))
	}
	if _, err := runUnits(opts, us); err != nil {
		t.Fatal(err)
	}
	if c := TraceCacheStats(); c.Generations != 3 {
		t.Fatalf("counters = %+v, want 3 passes", c)
	}
}

// TestTraceCacheEviction: nothing of a trace or of a result outlives
// its campaign. A second campaign in one process simulates again: it
// regenerates every trace, once each, and computes bit-identical
// results.
func TestTraceCacheEviction(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Workers = 2
	profiles := []*workload.Profile{mustProfile(t, "gcc"), mustProfile(t, "swim")}
	var runs []results
	for round := 1; round <= 2; round++ {
		res, err := runUnits(opts, sweep{opts, profiles, figureSpecs(), dSide}.units())
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
		if c := TraceCacheStats(); c.Generations != uint64(round*len(profiles)) || c.Bytes != 0 {
			t.Fatalf("round %d: %+v, want %d generations and nothing kept", round, c, round*len(profiles))
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("a regenerated trace gave different results")
	}
}

// TestTraceCacheBypass: Opts.TraceBytes is accepted and ignored — a
// negative, a tiny and the default value run the same passes and
// render the same CSV.
func TestTraceCacheBypass(t *testing.T) {
	defer ResetTraceCache()
	var csvs [][]byte
	var counters []TraceCacheCounters
	for _, budget := range []int64{0, 1, -1} {
		ResetTraceCache()
		opts := tinyOpts()
		opts.Instructions = 20_000
		opts.TraceBytes = budget
		csvs = append(csvs, runCSV(t, "table7", opts))
		counters = append(counters, TraceCacheStats())
	}
	for k := 1; k < len(csvs); k++ {
		if !bytes.Equal(csvs[k], csvs[0]) || counters[k] != counters[0] {
			t.Fatalf("TraceBytes changed the run: %+v vs %+v", counters[k], counters[0])
		}
	}
}

// TestPassFailingEngineFailsOnlyItsUnit: in one pass, an engine that
// panics mid-pass and one that fails at the end each fail their own
// unit only; the pass stops feeding the panicked engine, and every
// sibling commits its full count.
func TestPassFailingEngineFailsOnlyItsUnit(t *testing.T) {
	defer ResetTraceCache()
	opts := tinyOpts()
	p := mustProfile(t, "gcc")
	g := countingGrid(opts, []*workload.Profile{p}, []string{"a", "panic", "fail", "b"})
	res, err := runUnits(opts, g.units())
	if err == nil || !errors.Is(err, errUnitPanic) || !strings.Contains(err.Error(), "gcc/fail: boom") {
		t.Fatalf("error = %v, want the panic and gcc/fail's failure", err)
	}
	wantData, _ := materialize(t, p, opts.Instructions, opts.LineBytes)
	for c, cfg := range g.configs {
		n, err := result[int](res, g.key(p, c))
		switch cfg {
		case "panic", "fail":
			if err == nil {
				t.Errorf("%s committed %d", cfg, n)
			}
		default:
			if err != nil || n != len(wantData) {
				t.Errorf("%s = %d, %v; want %d", cfg, n, err, len(wantData))
			}
		}
	}
}

// TestSuiteZeroDuplicateGeneration: one trace-major campaign over the
// full miss-rate fan-out generates each trace once — generations equal
// the number of distinct (profile, seed) keys regardless of specs or
// sides, one pass feeding both sides' units — and a repeat of it is a
// campaign of its own that runs every pass again.
func TestSuiteZeroDuplicateGeneration(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Seeds = 2
	profiles := workload.All()
	sweeps := []Experiment{
		{ID: "d", Units: func(o Opts) []unit { return sweep{o, profiles, figureSpecs(), dSide}.units() }},
		{ID: "i", Units: func(o Opts) []unit { return sweep{o, profiles, figureSpecs(), iSide}.units() }},
	}
	traces := uint64(len(profiles) * opts.Seeds)
	for round := uint64(1); round <= 2; round++ {
		if _, err := runUnits(opts, campaignUnits(opts, sweeps)); err != nil {
			t.Fatal(err)
		}
		if got := TraceCacheStats().Generations; got != round*traces {
			t.Fatalf("after campaign %d: generated %d traces, want %d (duplicate generation)", round, got, round*traces)
		}
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
	_, err := runUnits(opts, timedGrid(opts).units())
	// Let the abandoned passes stop, so they cannot move the shared
	// trace counters under a later test.
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
		err := runUnitsCtl(tc.n, tc.workers, unitOpts{Groups: fixedGroups(tc.n, tc.group)}, each(func(i int) (func(), error) {
			seen[i].Add(1)
			return nil, nil
		}))
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
	err := runUnitsCtl(1000, 1, unitOpts{}, each(func(i int) (func(), error) {
		ran.Add(1)
		if i == 3 {
			return nil, boom
		}
		return nil, nil
	}))
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
	err := runUnitsCtl(2, 2, unitOpts{}, each(func(i int) (func(), error) {
		gate.Done()
		gate.Wait() // both workers fail simultaneously
		return nil, fmt.Errorf("unit %d failed", i)
	}))
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
	profiles := workload.All()[:3]
	boom := errors.New("boom")
	g := grid[int]{id: "test", opts: tinyOpts(), profiles: profiles, configs: []string{"a", "b"},
		run: func(p *workload.Profile, c int) (engine[int], error) {
			return engine[int]{feed: func(*chunk) {}, results: func() (int, error) {
				if p.Name == profiles[1].Name && c == 1 {
					return 0, boom
				}
				return c + 1, nil
			}}, nil
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
