package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bcache/internal/obs/metrics"
	"bcache/internal/obs/tracespan"
	"bcache/internal/workload"
)

// The retry/backoff schedule and span emission are pinned through the
// Clock seam: a FakeClock advances instead of sleeping, so these tests
// assert the exact doubling sequence and exactly-one-span-per-event
// invariants without wall-clock flakiness.

// withTelemetry installs a FakeClock-backed hub for the test and
// restores the previous hub afterwards.
func withTelemetry(t *testing.T) (*Telemetry, *tracespan.FakeClock) {
	t.Helper()
	clk := tracespan.NewFakeClock(time.Unix(1_700_000_000, 0))
	tel := NewTelemetry(1024, clk)
	prev := CurrentTelemetry()
	SetTelemetry(tel)
	t.Cleanup(func() { SetTelemetry(prev) })
	return tel, clk
}

func spansOfKind(j *tracespan.Journal, kind string) []tracespan.Span {
	var out []tracespan.Span
	for _, s := range j.Snapshot() {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

func TestRetryBackoffExactDoubling(t *testing.T) {
	_, clk := withTelemetry(t)
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 3, Backoff: 50 * time.Millisecond, Clock: clk},
		each(func(i int) (func(), error) {
			if attempts.Add(1) < 4 {
				return nil, fmt.Errorf("flaky: %w", ErrTransient)
			}
			return nil, nil
		}))
	if err != nil {
		t.Fatalf("unit should succeed on fourth attempt: %v", err)
	}
	sleeps := clk.Sleeps()
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("backoff sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (exact doubling)", i, sleeps[i], want[i])
		}
	}
}

func TestRetryBackoffDefaultBase(t *testing.T) {
	_, clk := withTelemetry(t)
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 1, Clock: clk}, each(func(i int) (func(), error) {
		if attempts.Add(1) == 1 {
			return nil, fmt.Errorf("once: %w", ErrTransient)
		}
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sleeps := clk.Sleeps(); len(sleeps) != 1 || sleeps[0] != 50*time.Millisecond {
		t.Fatalf("sleeps = %v, want the 50ms default base", sleeps)
	}
}

func TestRetryStopRequestedShortCircuit(t *testing.T) {
	defer ResetStop()
	_, clk := withTelemetry(t)
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 10, Backoff: time.Millisecond, Clock: clk},
		each(func(i int) (func(), error) {
			attempts.Add(1)
			RequestStop()
			return nil, fmt.Errorf("transient under stop: %w", ErrTransient)
		}))
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("want the transient error surfaced, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("stop-requested unit ran %d attempts, want 1 (no retries)", got)
	}
	if sleeps := clk.Sleeps(); len(sleeps) != 0 {
		t.Fatalf("stop-requested unit slept %v, want no backoff at all", sleeps)
	}
}

func TestOneRetrySpanPerScheduledRetry(t *testing.T) {
	tel, clk := withTelemetry(t)
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 2, Backoff: 10 * time.Millisecond, Clock: clk,
		Label: func(i int) string { return "flaky-unit" }},
		each(func(i int) (func(), error) {
			if attempts.Add(1) < 3 {
				return nil, fmt.Errorf("flaky: %w", ErrTransient)
			}
			return nil, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	unitSpans := spansOfKind(tel.Journal(), tracespan.KindUnit)
	retrySpans := spansOfKind(tel.Journal(), tracespan.KindRetry)
	if len(unitSpans) != 3 {
		t.Fatalf("unit spans = %d, want exactly one per attempt (3)", len(unitSpans))
	}
	if len(retrySpans) != 2 {
		t.Fatalf("retry spans = %d, want exactly one per scheduled retry (2)", len(retrySpans))
	}
	for i, s := range retrySpans {
		if s.Attempt != i {
			t.Errorf("retry span %d Attempt = %d, want %d", i, s.Attempt, i)
		}
		if s.Name != "flaky-unit" {
			t.Errorf("retry span %d Name = %q", i, s.Name)
		}
		if s.Detail == "" {
			t.Errorf("retry span %d missing backoff delay detail", i)
		}
	}
	// The two failed attempts carry the error; the last one is clean.
	if unitSpans[0].Err == "" || unitSpans[1].Err == "" || unitSpans[2].Err != "" {
		t.Errorf("unit span errors = %q, %q, %q", unitSpans[0].Err, unitSpans[1].Err, unitSpans[2].Err)
	}
}

func TestPanicAndCountersInTelemetry(t *testing.T) {
	tel, _ := withTelemetry(t)
	err := runUnitsCtl(4, 2, unitOpts{}, each(func(i int) (func(), error) {
		if i == 2 {
			panic("boom")
		}
		return nil, nil
	}))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want panic error, got %v", err)
	}
	if got := spansOfKind(tel.Journal(), tracespan.KindPanic); len(got) != 1 {
		t.Fatalf("panic spans = %d, want 1", len(got))
	}
	p := tel.ProgressSnapshot()
	if p.QueuedUnits != 4 || p.DoneUnits != 3 || p.FailedUnits != 1 {
		t.Fatalf("progress = %+v, want 4 queued / 3 done / 1 failed", p)
	}
	if p.InFlight != 0 {
		t.Fatalf("in-flight = %d after run, want 0", p.InFlight)
	}
	if err := ValidateProgress(p); err != nil {
		t.Fatalf("progress snapshot invalid: %v", err)
	}
}

func TestAbandonSpanOnTimeout(t *testing.T) {
	tel, _ := withTelemetry(t)
	release := make(chan struct{})
	defer close(release)
	err := runUnitsCtl(1, 1, unitOpts{Timeout: 10 * time.Millisecond}, each(func(i int) (func(), error) {
		<-release
		return nil, nil
	}))
	if !errors.Is(err, ErrUnitTimeout) {
		t.Fatalf("want ErrUnitTimeout, got %v", err)
	}
	if got := spansOfKind(tel.Journal(), tracespan.KindAbandon); len(got) != 1 {
		t.Fatalf("abandon spans = %d, want 1", len(got))
	}
	if tel.ProgressSnapshot().FailedUnits != 1 {
		t.Fatal("abandoned unit not counted as failed")
	}
}

func TestUnitTimingSummary(t *testing.T) {
	tel, clk := withTelemetry(t)
	tel.BeginExperiment("figX")
	durs := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 400 * time.Millisecond}
	err := runUnitsCtl(len(durs), 1, unitOpts{Clock: clk,
		Label: func(i int) string { return fmt.Sprintf("unit%d", i) },
		Owner: func(int) string { return "figX" }},
		each(func(i int) (func(), error) {
			clk.Advance(durs[i])
			return nil, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	// The window spans the owner's unit attempts, back to back here.
	if _, dur := tel.ExperimentWindow("figX"); dur != 430*time.Millisecond {
		t.Fatalf("ExperimentWindow = %v, want 430ms", dur)
	}
	if _, dur := tel.ExperimentWindow("figY"); dur != 0 {
		t.Fatalf("ExperimentWindow of an experiment without units = %v, want 0", dur)
	}
	start := clk.Now()
	sum := tel.EndExperiment("figX", start, time.Second)
	if sum == nil {
		t.Fatal("no summary")
	}
	if sum.Units != 3 {
		t.Fatalf("Units = %d, want 3", sum.Units)
	}
	if sum.MaxSeconds != 0.4 {
		t.Fatalf("MaxSeconds = %v, want 0.4", sum.MaxSeconds)
	}
	if sum.SlowestUnit != "unit2" {
		t.Fatalf("SlowestUnit = %q, want unit2", sum.SlowestUnit)
	}
	if sum.P50Seconds != 0.02 {
		t.Fatalf("P50Seconds = %v, want 0.02", sum.P50Seconds)
	}
	footer := sum.Footer()
	for _, want := range []string{"units: 3", "unit2", "p50", "max 400ms"} {
		if !strings.Contains(footer, want) {
			t.Fatalf("footer %q missing %q", footer, want)
		}
	}
	// Experiment span recorded with the given start/duration.
	exp := spansOfKind(tel.Journal(), tracespan.KindExperiment)
	if len(exp) != 1 || exp[0].Name != "figX" || exp[0].DurNanos != int64(time.Second) {
		t.Fatalf("experiment spans = %+v", exp)
	}
	// A second BeginExperiment resets the digest.
	tel.BeginExperiment("figY")
	if sum := tel.EndExperiment("figY", start, 0); sum != nil {
		t.Fatalf("digest not reset: %+v", sum)
	}
}

// TestCheckpointSpanOnAutosave: each append emits one checkpoint span
// sized in the bytes it wrote, so the spans of a new log sum to its
// file size; re-recording a key's same bytes appends nothing and emits
// nothing.
func TestCheckpointSpanOnAutosave(t *testing.T) {
	tel, _ := withTelemetry(t)
	path := t.TempDir() + "/ckpt.log"
	cp := NewCheckpoint(path)
	cp.Record("a", rawJSON(UnitResult{Accesses: 1}))
	cp.Record("b", rawJSON(UnitResult{Accesses: 2}))
	cp.Record("a", rawJSON(UnitResult{Accesses: 1}))
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	spans := spansOfKind(tel.Journal(), tracespan.KindCheckpoint)
	if len(spans) != 2 {
		t.Fatalf("checkpoint spans after two new records = %d, want 2", len(spans))
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := spans[0].Bytes + spans[1].Bytes; sum != info.Size() || spans[1].Count != info.Size() {
		t.Fatalf("span bytes sum to %d, last log size %d; the file holds %d", sum, spans[1].Count, info.Size())
	}
}

// TestTraceCacheSpans: each pass emits exactly one trace_build span,
// named for its profile, and no trace_hit span. Two campaigns of one
// group run two passes: no result outlives its campaign.
func TestTraceCacheSpans(t *testing.T) {
	tel, _ := withTelemetry(t)
	ResetTraceCache()
	defer ResetTraceCache()
	opts := DefaultOpts()
	opts.Instructions = 10_000
	p := workload.All()[0]
	g := countingGrid(opts, []*workload.Profile{p}, []string{"a", "b", "c"})
	for range 2 {
		if _, err := runUnits(opts, g.units()); err != nil {
			t.Fatal(err)
		}
	}
	builds := spansOfKind(tel.Journal(), tracespan.KindTraceBuild)
	if hits := spansOfKind(tel.Journal(), tracespan.KindTraceHit); len(builds) != 2 || len(hits) != 0 {
		t.Fatalf("builds=%d hits=%d, want 2 and 0", len(builds), len(hits))
	}
	for _, b := range builds {
		if b.Name != p.Name || b.Bytes <= 0 {
			t.Fatalf("build span %+v, want name %q and the pass's resident bytes", b, p.Name)
		}
	}
	if got := TraceCacheStats().Generations; got != 2 {
		t.Fatalf("%d generations, want 2", got)
	}
}

// TestTelemetryNilSafe: Emit and the rest of the hub follow the
// nil-receiver convention, so emission sites (the scheduler, the trace
// cache, the checkpoint, the dist hooks) never guard their calls.
func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.Emit(tracespan.Span{Kind: tracespan.KindQueue, Count: 5})
	tel.Emit(tracespan.Span{Kind: tracespan.KindUnit, Name: "x", Owner: "e"})
	tel.BeginExperiment("e")
	if sum := tel.EndExperiment("e", time.Time{}, 0); sum != nil {
		t.Fatal("nil telemetry returned a summary")
	}
	if tel.Journal() != nil || tel.Registry() != nil {
		t.Fatal("nil telemetry leaked non-nil components")
	}
	p := tel.ProgressSnapshot()
	if err := ValidateProgress(p); err != nil {
		t.Fatalf("nil progress invalid: %v", err)
	}
}

// TestDistTelemetryNilSafe: every distribution span kind goes through the
// hub's nil-receiver Emit, so dist code never guards its telemetry calls.
func TestDistTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	for _, s := range []tracespan.Span{
		{Kind: tracespan.KindLease, Worker: 0, Unit: -1, Count: 4},
		{Kind: tracespan.KindLeaseExpire, Worker: 0, Unit: -1, Count: 4},
		{Kind: tracespan.KindWorkerStart, Worker: 1},
		{Kind: tracespan.KindWorkerExit, Worker: 1},
		{Kind: tracespan.KindWorkerRestart, Worker: 0},
		{Kind: tracespan.KindShardMerge, Worker: 0, Count: 1, DurNanos: int64(time.Millisecond)},
		{Kind: tracespan.KindDuplicate, Unit: 0},
	} {
		tel.Emit(s)
	}
}

// TestFoldMatchesJournal drives one campaign through runUnits with a
// transient unit that succeeds on retry, a panicking unit, a unit that
// times out on both attempts, a replay unit whose accesses count, trace
// passes, and a checkpoint log. Every counter and
// gauge must equal what the journal's spans imply, and replaying the
// journal through foldLocked on a fresh hub must rebuild the exposition
// and /progress exactly: no instrument moves outside the fold.
func TestFoldMatchesJournal(t *testing.T) {
	tel, _ := withTelemetry(t)
	ResetTraceCache()
	defer ResetTraceCache()
	opts := DefaultOpts()
	opts.Instructions = 10_000
	opts.Workers = 1
	opts.UnitRetries = 1
	opts.Checkpoint = NewCheckpoint(t.TempDir() + "/ckpt.log")
	release := make(chan struct{})
	defer close(release)

	profs := workload.All()
	var flaky atomic.Int32
	mk := func(p *workload.Profile, label string, start func() error) unit {
		u := newUnit(opts, p, label, []string{"fold/" + label}, dataStream, func() (engine[[]UnitResult], error) {
			if err := start(); err != nil {
				return engine[[]UnitResult]{}, err
			}
			var r UnitResult
			return engine[[]UnitResult]{feed: func(ch *chunk) { r.Accesses += uint64(len(ch.data)) },
				results: func() ([]UnitResult, error) { return []UnitResult{r}, nil }}, nil
		})
		u.owner = "figF"
		return u
	}
	replay := mk(profs[0], "replay", func() error { return nil })
	replay.replays = true
	units := []unit{
		replay,
		mk(profs[0], "flaky", func() error {
			if flaky.Add(1) == 1 {
				return fmt.Errorf("once: %w", ErrTransient)
			}
			return nil
		}),
		mk(profs[1], "boom", func() error { panic("boom") }),
	}
	hang := mk(profs[2], "hang", func() error {
		<-release
		return nil
	})
	tel.BeginExperiment("figF")
	if _, err := runUnits(opts, units); err == nil {
		t.Fatal("campaign with a panicking unit returned no error")
	}
	// Only the hanging unit runs under the deadline: a unit doing real
	// work on a loaded machine must not be abandoned with it.
	deadline := opts
	deadline.UnitTimeout = 20 * time.Millisecond
	if _, err := runUnits(deadline, []unit{hang}); err == nil {
		t.Fatal("campaign with a hanging unit returned no error")
	}
	if err := opts.Checkpoint.Close(); err != nil {
		t.Fatal(err)
	}

	spans := tel.Journal().Snapshot()
	var (
		queued, drained, claims, releases, gaveUp, done, retries uint64
		panics, abandons, accesses, appends, builds, walls       uint64
		ckptBytes, traceBytes                                    int64
	)
	for _, s := range spans {
		switch s.Kind {
		case tracespan.KindQueue:
			queued += uint64(s.Count)
		case tracespan.KindDrain:
			drained += uint64(s.Count)
		case tracespan.KindClaim:
			claims++
		case tracespan.KindRelease:
			releases++
			if s.Err != "" {
				gaveUp++
			}
		case tracespan.KindUnit:
			walls++
			if s.Err == "" {
				done++
			}
		case tracespan.KindRetry:
			retries++
		case tracespan.KindPanic:
			panics++
		case tracespan.KindAbandon:
			abandons++
		case tracespan.KindAccesses:
			accesses += uint64(s.Count)
		case tracespan.KindCheckpoint:
			appends++
			ckptBytes = s.Count
		case tracespan.KindTraceBuild:
			builds++
			traceBytes = s.Bytes
		}
	}
	// The campaign's own shape, so the comparisons below are not vacuous.
	// Passes: replay and flaky's group, and flaky's retry alone; boom's
	// and hang's engines never start, so theirs run no pass.
	if queued != 4 || done != 2 || gaveUp != 2 || retries != 2 || panics != 1 ||
		abandons != 2 || accesses == 0 || appends != 2 || builds != 2 {
		t.Fatalf("journal: queued %d done %d gave up %d retries %d panics %d abandons %d accesses %d appends %d builds %d",
			queued, done, gaveUp, retries, panics, abandons, accesses, appends, builds)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"units_queued", float64(tel.unitsQueued.Value()), float64(queued)},
		{"units_completed", float64(tel.unitsCompleted.Value()), float64(done)},
		{"units_failed", float64(tel.unitsFailed.Value()), float64(gaveUp)},
		{"units_retried", float64(tel.unitsRetried.Value()), float64(retries)},
		{"units_panicked", float64(tel.unitsPanicked.Value()), float64(panics)},
		{"units_abandoned", float64(tel.unitsAbandoned.Value()), float64(abandons)},
		{"accesses", float64(tel.accesses.Value()), float64(accesses)},
		{"checkpoint_saves", float64(tel.checkpointSaves.Value()), float64(appends)},
		{"trace_cache_builds", float64(tel.traceBuilds.Value()), float64(builds)},
		{"queue_depth", tel.queueDepth.Value(), float64(queued - drained - claims)},
		{"units_in_flight", tel.inFlight.Value(), float64(claims - releases)},
		{"checkpoint_bytes", tel.checkpointBytes.Value(), float64(ckptBytes)},
		{"trace_cache_bytes", tel.traceCacheBytes.Value(), float64(traceBytes)},
		{"unit_wall_seconds count", float64(tel.unitWall.Count()), float64(walls)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, the journal implies %v", c.name, c.got, c.want)
		}
	}
	p := tel.ProgressSnapshot()
	want := Progress{SchemaVersion: ProgressSchemaVersion, Experiment: "figF",
		QueuedUnits: queued, DoneUnits: done, FailedUnits: gaveUp, RetriedUnits: retries,
		Accesses: accesses, SpansRecorded: uint64(len(spans))}
	if p != want {
		t.Errorf("progress %+v, the journal implies %+v", p, want)
	}
	if sum := tel.EndExperiment("figF", time.Time{}, 0); sum == nil || sum.Units != int(done) {
		t.Errorf("digest %+v, want %d completed units", sum, done)
	}

	replayed := NewTelemetry(len(spans), nil)
	replayed.mu.Lock()
	for _, s := range spans {
		replayed.foldLocked(s)
	}
	replayed.mu.Unlock()
	if got, want := exposition(t, replayed), exposition(t, tel); got != want {
		t.Errorf("journal replayed through the fold renders\n%s\nthe live hub\n%s", got, want)
	}
	rp := replayed.ProgressSnapshot()
	rp.SpansRecorded = p.SpansRecorded
	if rp != p {
		t.Errorf("replayed progress %+v, live %+v", rp, p)
	}
}

func exposition(t *testing.T, tel *Telemetry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.Registry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateExposition(buf.String()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	return buf.String()
}

// TestMetricFamiliesPinned pins the 21 metric families — name, type and
// help text — that scrape dashboards key on.
func TestMetricFamiliesPinned(t *testing.T) {
	want := []string{
		"bcache_accesses counter cache accesses simulated by committed units",
		"bcache_checkpoint_bytes gauge size of the checkpoint log after its last append",
		"bcache_checkpoint_saves counter records appended to the checkpoint log",
		"bcache_queue_depth gauge work units queued but not yet claimed",
		"bcache_trace_cache_builds counter trace passes run: one generator run per trace group",
		"bcache_trace_cache_bytes gauge chunk-buffer bytes of the running trace passes",
		"bcache_unit_wall_seconds histogram wall time per work unit attempt",
		"bcache_units_abandoned counter unit attempts abandoned past their deadline",
		"bcache_units_completed counter work units that committed successfully",
		"bcache_units_failed counter work units that exhausted retries or failed terminally",
		"bcache_units_in_flight gauge work units currently executing",
		"bcache_units_panicked counter unit attempts that panicked (recovered by the scheduler)",
		"bcache_units_queued counter work units handed to the scheduler",
		"bcache_units_retried counter retry attempts scheduled after timeouts or transient failures",
		"dist_duplicates_dropped counter re-leased unit completions dropped (first commit wins)",
		"dist_leases_granted counter trace-group leases granted to worker subprocesses",
		"dist_releases counter leases released back to the pool (expiry or worker death)",
		"dist_shard_merge_seconds histogram wall time merging one worker shard",
		"dist_shard_recovered_units counter units recovered from dead workers' shards",
		"dist_worker_restarts counter dead worker subprocesses respawned",
		"dist_workers_live gauge worker subprocesses currently attached",
	}
	var got []string
	types := map[string]string{}
	for _, line := range strings.Split(exposition(t, NewTelemetry(0, nil)), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			got = append(got, name+" "+types[name]+" "+help)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("metric families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestValidateProgressRejects(t *testing.T) {
	bad := []Progress{
		{SchemaVersion: 99},
		{SchemaVersion: ProgressSchemaVersion, DoneUnits: 2, QueuedUnits: 1},
		{SchemaVersion: ProgressSchemaVersion, InFlight: -1},
		{SchemaVersion: ProgressSchemaVersion, SpansDropped: 5, SpansRecorded: 1},
	}
	for i, p := range bad {
		if err := ValidateProgress(p); err == nil {
			t.Errorf("case %d: accepted %+v", i, p)
		}
	}
}
