package experiment

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
		func(i int) (func(), error) {
			if attempts.Add(1) < 4 {
				return nil, fmt.Errorf("flaky: %w", ErrTransient)
			}
			return nil, nil
		})
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
	err := runUnitsCtl(1, 1, unitOpts{Retries: 1, Clock: clk}, func(i int) (func(), error) {
		if attempts.Add(1) == 1 {
			return nil, fmt.Errorf("once: %w", ErrTransient)
		}
		return nil, nil
	})
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
		func(i int) (func(), error) {
			attempts.Add(1)
			RequestStop()
			return nil, fmt.Errorf("transient under stop: %w", ErrTransient)
		})
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
		func(i int) (func(), error) {
			if attempts.Add(1) < 3 {
				return nil, fmt.Errorf("flaky: %w", ErrTransient)
			}
			return nil, nil
		})
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
	err := runUnitsCtl(4, 2, unitOpts{}, func(i int) (func(), error) {
		if i == 2 {
			panic("boom")
		}
		return nil, nil
	})
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
	err := runUnitsCtl(1, 1, unitOpts{Timeout: 10 * time.Millisecond}, func(i int) (func(), error) {
		<-release
		return nil, nil
	})
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
		func(i int) (func(), error) {
			clk.Advance(durs[i])
			return nil, nil
		})
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

func TestCheckpointSpanOnAutosave(t *testing.T) {
	tel, _ := withTelemetry(t)
	dir := t.TempDir()
	cp := NewCheckpoint(dir + "/ckpt.json")
	cp.SetAutosave(2)
	cp.Record("a", rawJSON(UnitResult{Accesses: 1}))
	cp.Record("b", rawJSON(UnitResult{Accesses: 2}))
	spans := spansOfKind(tel.Journal(), tracespan.KindCheckpoint)
	if len(spans) != 1 {
		t.Fatalf("checkpoint spans after autosave = %d, want 1", len(spans))
	}
	if !strings.Contains(spans[0].Detail, "units=2") {
		t.Fatalf("checkpoint span detail = %q", spans[0].Detail)
	}
	if err := cp.Save(); err != nil {
		t.Fatal(err)
	}
	if got := spansOfKind(tel.Journal(), tracespan.KindCheckpoint); len(got) != 2 {
		t.Fatalf("checkpoint spans after explicit save = %d, want 2", len(got))
	}
}

func TestTraceCacheSpans(t *testing.T) {
	tel, _ := withTelemetry(t)
	ResetTraceCache()
	defer ResetTraceCache()
	opts := DefaultOpts()
	opts.Instructions = 10_000
	p := workload.All()[0]
	if _, err := cachedData(opts, p); err != nil {
		t.Fatal(err)
	}
	if _, err := cachedData(opts, p); err != nil {
		t.Fatal(err)
	}
	builds := spansOfKind(tel.Journal(), tracespan.KindTraceBuild)
	hits := spansOfKind(tel.Journal(), tracespan.KindTraceHit)
	// One build: the data trace, straight from the generator; the
	// second cachedData call is a single in-memory hit.
	if len(builds) != 1 || len(hits) != 1 {
		t.Fatalf("builds=%d hits=%d, want 1 and 1", len(builds), len(hits))
	}
	if builds[0].Name != p.Name {
		t.Fatalf("build span name = %q, want %q", builds[0].Name, p.Name)
	}
}

func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.runQueued(5)
	tel.unitClaimed()
	tel.unitAttempt(0, 0, "x", "e", 0, time.Time{}, 0, nil)
	tel.unitRetry(0, 0, "x", 0, time.Millisecond)
	tel.unitReleased()
	tel.unitFailed()
	tel.addAccesses(100)
	tel.checkpointSaved(1, 2)
	tel.traceCacheEvent(tracespan.KindTraceHit, "x", time.Time{}, 0, 0)
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
