package experiment

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bcache/internal/obs/metrics"
	"bcache/internal/obs/tracespan"
)

// Telemetry is the experiment layer's live observability hub: one span
// journal (the scheduler's flight recorder) plus one metrics registry
// (the /metrics exposition), fed from the scheduler, checkpoint, and
// trace-cache seams. The CLIs install one per process with SetTelemetry;
// everything in this file is nil-safe, so with no telemetry installed
// the scheduler pays a single atomic pointer load per work unit and the
// checkpoint/trace-cache seams pay one per event.
//
// All wall-clock reads go through the tracespan.Clock seam — Telemetry
// never calls time.Now — so the determinism analyzer stays clean and
// tests drive retry/backoff schedules with a FakeClock.

// ProgressSchemaVersion identifies the /progress JSON layout.
const ProgressSchemaVersion = 1

// Progress is the live scheduler snapshot served at /progress.
type Progress struct {
	SchemaVersion int    `json:"schemaVersion"`
	Experiment    string `json:"experiment,omitempty"`
	QueuedUnits   uint64 `json:"queuedUnits"`
	DoneUnits     uint64 `json:"doneUnits"`
	FailedUnits   uint64 `json:"failedUnits"`
	RetriedUnits  uint64 `json:"retriedUnits"`
	InFlight      int64  `json:"inFlight"`
	Accesses      uint64 `json:"accesses"`
	SpansRecorded uint64 `json:"spansRecorded"`
	SpansDropped  uint64 `json:"spansDropped"`
	Interrupted   bool   `json:"interrupted"`
}

// ValidateProgress checks the invariants a /progress consumer can rely
// on; the telemetry smoke test runs it against a live scrape.
func ValidateProgress(p Progress) error {
	if p.SchemaVersion != ProgressSchemaVersion {
		return fmt.Errorf("progress schema v%d, this build reads v%d", p.SchemaVersion, ProgressSchemaVersion)
	}
	if p.DoneUnits+p.FailedUnits > p.QueuedUnits {
		return fmt.Errorf("progress: %d done + %d failed exceeds %d queued",
			p.DoneUnits, p.FailedUnits, p.QueuedUnits)
	}
	if p.InFlight < 0 {
		return fmt.Errorf("progress: negative in-flight %d", p.InFlight)
	}
	if p.SpansDropped > p.SpansRecorded {
		return fmt.Errorf("progress: %d spans dropped exceeds %d recorded", p.SpansDropped, p.SpansRecorded)
	}
	return nil
}

// UnitTimingSummary is the per-unit wall-time digest folded into each
// experiment's JSON result and text footer: exact quantiles over the
// experiment's completed units, with the slowest unit named so tail
// kernels show up in every run, not only in a benchmark run.
type UnitTimingSummary struct {
	Units       int     `json:"units"`
	P50Seconds  float64 `json:"p50Seconds"`
	P90Seconds  float64 `json:"p90Seconds"`
	MaxSeconds  float64 `json:"maxSeconds"`
	SlowestUnit string  `json:"slowestUnit,omitempty"`
}

// Footer renders the summary as the one-line text-format annotation.
func (s *UnitTimingSummary) Footer() string {
	if s == nil || s.Units == 0 {
		return ""
	}
	return fmt.Sprintf("units: %d | p50 %v p90 %v max %v | slowest %s",
		s.Units,
		time.Duration(s.P50Seconds*float64(time.Second)).Round(time.Microsecond),
		time.Duration(s.P90Seconds*float64(time.Second)).Round(time.Microsecond),
		time.Duration(s.MaxSeconds*float64(time.Second)).Round(time.Microsecond),
		s.SlowestUnit)
}

// unitWallBounds are the wall-time histogram buckets in seconds: unit
// cost spans ~100µs stack-distance passes to multi-second 512-way
// replays.
var unitWallBounds = []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 30, 60}

// Telemetry bundles the journal, registry, and instruments. Construct
// with NewTelemetry; install with SetTelemetry.
type Telemetry struct {
	journal *tracespan.Journal
	clock   tracespan.Clock
	reg     *metrics.Registry

	unitsQueued     *metrics.Counter
	unitsCompleted  *metrics.Counter
	unitsFailed     *metrics.Counter
	unitsRetried    *metrics.Counter
	unitsPanicked   *metrics.Counter
	unitsAbandoned  *metrics.Counter
	accesses        *metrics.Counter
	checkpointSaves *metrics.Counter
	traceHits       *metrics.Counter
	traceBuilds     *metrics.Counter
	queueDepth      *metrics.Gauge
	inFlight        *metrics.Gauge
	checkpointBytes *metrics.Gauge
	traceCacheBytes *metrics.Gauge
	unitWall        *metrics.Histogram

	distLeases     *metrics.Counter
	distReleases   *metrics.Counter
	distRestarts   *metrics.Counter
	distDuplicates *metrics.Counter
	distRecovered  *metrics.Counter
	distWorkers    *metrics.Gauge
	distShardMerge *metrics.Histogram

	mu         sync.Mutex
	experiment string                     // guarded by mu
	folds      map[string]*experimentFold // guarded by mu
}

// experimentFold accumulates the unit attempts one experiment owns: the
// wall times of its completed units, the slowest of them, and the
// window from the first attempt's start to the last one's end.
type experimentFold struct {
	durs        []float64
	slowest     float64
	slowestKey  string
	first, last time.Time
}

// NewTelemetry builds a telemetry hub with a journal of journalCap
// spans (<= 0 uses the default) on the given clock (nil uses the wall
// clock).
func NewTelemetry(journalCap int, clock tracespan.Clock) *Telemetry {
	if clock == nil {
		clock = tracespan.Wall
	}
	reg := metrics.NewRegistry()
	t := &Telemetry{
		journal: tracespan.NewJournal(journalCap, clock),
		clock:   clock,
		reg:     reg,

		unitsQueued:     reg.Counter("bcache_units_queued", "work units handed to the scheduler"),
		unitsCompleted:  reg.Counter("bcache_units_completed", "work units that committed successfully"),
		unitsFailed:     reg.Counter("bcache_units_failed", "work units that exhausted retries or failed terminally"),
		unitsRetried:    reg.Counter("bcache_units_retried", "retry attempts scheduled after timeouts or transient failures"),
		unitsPanicked:   reg.Counter("bcache_units_panicked", "unit attempts that panicked (recovered by the scheduler)"),
		unitsAbandoned:  reg.Counter("bcache_units_abandoned", "unit attempts abandoned past their deadline"),
		accesses:        reg.Counter("bcache_accesses", "cache accesses simulated by committed units"),
		checkpointSaves: reg.Counter("bcache_checkpoint_saves", "checkpoint files written (autosave and explicit)"),
		traceHits:       reg.Counter("bcache_trace_cache_hits", "trace-cache lookups served from memory"),
		traceBuilds:     reg.Counter("bcache_trace_cache_builds", "trace-cache misses that materialized a stream"),
		queueDepth:      reg.Gauge("bcache_queue_depth", "work units queued but not yet claimed"),
		inFlight:        reg.Gauge("bcache_units_in_flight", "work units currently executing"),
		checkpointBytes: reg.Gauge("bcache_checkpoint_bytes", "size of the last checkpoint file written"),
		traceCacheBytes: reg.Gauge("bcache_trace_cache_bytes", "bytes held by the shared trace cache"),
		unitWall:        reg.Histogram("bcache_unit_wall_seconds", "wall time per work unit attempt", unitWallBounds),

		distLeases:     reg.Counter("dist_leases_granted", "unit-range leases granted to worker subprocesses"),
		distReleases:   reg.Counter("dist_releases", "leases released back to the pool (expiry or worker death)"),
		distRestarts:   reg.Counter("dist_worker_restarts", "dead worker subprocesses respawned"),
		distDuplicates: reg.Counter("dist_duplicates_dropped", "re-leased unit completions dropped (first commit wins)"),
		distRecovered:  reg.Counter("dist_shard_recovered_units", "units recovered from dead workers' shards"),
		distWorkers:    reg.Gauge("dist_workers_live", "worker subprocesses currently attached"),
		distShardMerge: reg.Histogram("dist_shard_merge_seconds", "wall time merging one worker shard", distMergeBounds),

		folds: map[string]*experimentFold{},
	}
	return t
}

// distMergeBounds are the shard-merge histogram buckets in seconds:
// merges are small file reads, so the interesting range is sub-second.
var distMergeBounds = []float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1, 5}

// Journal returns the span journal (for -trace-out exports).
func (t *Telemetry) Journal() *tracespan.Journal {
	if t == nil {
		return nil
	}
	return t.journal
}

// Registry returns the metrics registry (for the /metrics endpoint).
func (t *Telemetry) Registry() *metrics.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// ProgressSnapshot assembles the live /progress document.
func (t *Telemetry) ProgressSnapshot() Progress {
	p := Progress{SchemaVersion: ProgressSchemaVersion}
	if t == nil {
		return p
	}
	t.mu.Lock()
	p.Experiment = t.experiment
	t.mu.Unlock()
	p.QueuedUnits = t.unitsQueued.Value()
	p.DoneUnits = t.unitsCompleted.Value()
	p.FailedUnits = t.unitsFailed.Value()
	p.RetriedUnits = t.unitsRetried.Value()
	p.InFlight = int64(t.inFlight.Value())
	p.Accesses = t.accesses.Value()
	p.SpansRecorded = t.journal.Recorded()
	p.SpansDropped = t.journal.Dropped()
	p.Interrupted = Stopped()
	return p
}

// activeTelemetry is the process-wide hub; nil means telemetry is off.
var activeTelemetry atomic.Pointer[Telemetry]

// SetTelemetry installs t as the process-wide telemetry hub (nil turns
// telemetry off). Install before starting runs; the scheduler reads it
// per unit.
func SetTelemetry(t *Telemetry) { activeTelemetry.Store(t) }

// CurrentTelemetry returns the installed hub, or nil.
func CurrentTelemetry() *Telemetry { return activeTelemetry.Load() }

// BeginExperiment names id as the running experiment in /progress and
// resets the digest of the units id owns.
func (t *Telemetry) BeginExperiment(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.experiment = id
	delete(t.folds, id)
	t.mu.Unlock()
}

// ExperimentWindow returns the span of id's unit attempts: from the
// first one's start to the last one's end (zero when id owns none).
func (t *Telemetry) ExperimentWindow(id string) (start time.Time, dur time.Duration) {
	if t == nil {
		return time.Time{}, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.folds[id]
	if f == nil {
		return time.Time{}, 0
	}
	return f.first, f.last.Sub(f.first)
}

// EndExperiment emits the experiment-level span over [start, start+dur)
// and returns the timing digest of the units id owns (nil with none).
func (t *Telemetry) EndExperiment(id string, start time.Time, dur time.Duration) *UnitTimingSummary {
	if t == nil {
		return nil
	}
	s := tracespan.Span{
		Kind: tracespan.KindExperiment, Name: id,
		Worker: tracespan.SharedWorker, Unit: -1, DurNanos: int64(dur),
	}
	if !start.IsZero() {
		s.StartUnixNano = start.UnixNano()
	}
	t.journal.Record(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.folds[id]
	if f == nil || len(f.durs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), f.durs...)
	sort.Float64s(sorted)
	quantile := func(q float64) float64 {
		i := int(q * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return &UnitTimingSummary{
		Units:       len(sorted),
		P50Seconds:  quantile(0.50),
		P90Seconds:  quantile(0.90),
		MaxSeconds:  sorted[len(sorted)-1],
		SlowestUnit: f.slowestKey,
	}
}

// now returns the hub's clock reading; callers gate on t != nil first.
func (t *Telemetry) now() time.Time { return t.clock.Now() }

// runQueued accounts n units entering the scheduler.
func (t *Telemetry) runQueued(n int) {
	if t == nil {
		return
	}
	t.unitsQueued.Add(uint64(n))
	t.queueDepth.Add(float64(n))
}

// runDrained removes units that will never be claimed (stop requests)
// from the queue-depth gauge.
func (t *Telemetry) runDrained(unclaimed int) {
	if t == nil || unclaimed <= 0 {
		return
	}
	t.queueDepth.Add(-float64(unclaimed))
}

// unitClaimed moves one unit from queued to in-flight.
func (t *Telemetry) unitClaimed() {
	if t == nil {
		return
	}
	t.queueDepth.Add(-1)
	t.inFlight.Add(1)
}

// unitReleased takes a unit out of in-flight once its last attempt ends.
func (t *Telemetry) unitReleased() {
	if t == nil {
		return
	}
	t.inFlight.Add(-1)
}

// unitAttempt records one completed attempt of a unit owned by
// experiment owner: the KindUnit span, the wall-time histogram sample,
// an abandon/panic instant when the error says so, the owner's window
// and — on the successful attempt — the owner's timing digest.
func (t *Telemetry) unitAttempt(worker, unit int, label, owner string, attempt int, start time.Time, dur time.Duration, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if owner != "" {
		t.experiment = owner
	}
	f := t.folds[owner]
	if f == nil {
		f = &experimentFold{first: start, last: start}
		t.folds[owner] = f
	}
	if start.Before(f.first) {
		f.first = start
	}
	if end := start.Add(dur); end.After(f.last) {
		f.last = end
	}
	if err == nil {
		sec := dur.Seconds()
		f.durs = append(f.durs, sec)
		if sec > f.slowest || f.slowestKey == "" {
			f.slowest, f.slowestKey = sec, label
		}
	}
	t.mu.Unlock()
	s := tracespan.Span{
		Kind: tracespan.KindUnit, Name: label, Worker: worker, Unit: unit,
		Attempt: attempt, StartUnixNano: start.UnixNano(), DurNanos: int64(dur),
	}
	if err != nil {
		s.Err = err.Error()
	}
	t.journal.Record(s)
	sec := dur.Seconds()
	t.unitWall.Observe(sec)
	switch {
	case err == nil:
		t.unitsCompleted.Inc()
	case errors.Is(err, ErrUnitTimeout):
		t.unitsAbandoned.Inc()
		t.journal.Record(tracespan.Span{
			Kind: tracespan.KindAbandon, Name: label, Worker: worker, Unit: unit,
			Attempt: attempt, StartUnixNano: start.Add(dur).UnixNano(), Err: s.Err,
		})
	case errors.Is(err, errUnitPanic):
		t.unitsPanicked.Inc()
		t.journal.Record(tracespan.Span{
			Kind: tracespan.KindPanic, Name: label, Worker: worker, Unit: unit,
			Attempt: attempt, StartUnixNano: start.Add(dur).UnixNano(), Err: s.Err,
		})
	}
}

// unitRetry records a retry being scheduled after a failed attempt.
func (t *Telemetry) unitRetry(worker, unit int, label string, attempt int, delay time.Duration) {
	if t == nil {
		return
	}
	t.unitsRetried.Inc()
	t.journal.Record(tracespan.Span{
		Kind: tracespan.KindRetry, Name: label, Worker: worker, Unit: unit,
		Attempt: attempt, Detail: delay.String(),
	})
}

// unitFailed records a unit giving up for good.
func (t *Telemetry) unitFailed() {
	if t == nil {
		return
	}
	t.unitsFailed.Inc()
}

// addAccesses accounts simulated accesses from a committed unit.
func (t *Telemetry) addAccesses(n uint64) {
	if t == nil {
		return
	}
	t.accesses.Add(n)
}

// checkpointSaved records one checkpoint write.
func (t *Telemetry) checkpointSaved(units, bytes int) {
	if t == nil {
		return
	}
	t.checkpointSaves.Inc()
	t.checkpointBytes.Set(float64(bytes))
	t.journal.Record(tracespan.Span{
		Kind: tracespan.KindCheckpoint, Worker: tracespan.SharedWorker, Unit: -1,
		Detail: fmt.Sprintf("units=%d bytes=%d", units, bytes),
	})
}

// traceCacheEvent records one shared-trace-cache event (kind is a
// tracespan.KindTrace* constant); usedBytes refreshes the size gauge,
// and dur carries the build time for trace_build spans.
func (t *Telemetry) traceCacheEvent(kind, name string, start time.Time, dur time.Duration, usedBytes int64) {
	if t == nil {
		return
	}
	switch kind {
	case tracespan.KindTraceHit:
		t.traceHits.Inc()
	case tracespan.KindTraceBuild:
		t.traceBuilds.Inc()
	}
	t.traceCacheBytes.Set(float64(usedBytes))
	s := tracespan.Span{
		Kind: kind, Name: name, Worker: tracespan.SharedWorker, Unit: -1,
		DurNanos: int64(dur),
	}
	if !start.IsZero() {
		s.StartUnixNano = start.UnixNano()
	}
	t.journal.Record(s)
}

// The Dist* methods observe the distributed coordinator (internal/dist)
// through its Events hooks — cmd/experiments wires them up. All are
// nil-safe like the rest of the hub.

// DistLeaseGranted records a unit-range lease going to a worker slot.
func (t *Telemetry) DistLeaseGranted(worker, leaseID, start, end int) {
	if t == nil {
		return
	}
	t.distLeases.Inc()
	t.journal.Record(tracespan.Span{
		Kind: tracespan.KindLease, Worker: worker, Unit: -1, Attempt: leaseID,
		Detail: fmt.Sprintf("units=%d-%d", start, end),
	})
}

// DistLeaseExpired records a lease missing its deadline; returned units
// go back to the pool for re-lease.
func (t *Telemetry) DistLeaseExpired(worker, leaseID, returned int) {
	if t == nil {
		return
	}
	t.distReleases.Inc()
	t.journal.Record(tracespan.Span{
		Kind: tracespan.KindLeaseExpire, Worker: worker, Unit: -1, Attempt: leaseID,
		Detail: fmt.Sprintf("returned=%d", returned),
	})
}

// DistWorkerAttached moves the live-workers gauge as subprocesses come
// and go (delta is +1 on start, -1 on exit).
func (t *Telemetry) DistWorkerAttached(delta int) {
	if t == nil {
		return
	}
	t.distWorkers.Add(float64(delta))
}

// DistWorkerRestarted records a dead worker slot being respawned.
func (t *Telemetry) DistWorkerRestarted(worker, attempt int) {
	if t == nil {
		return
	}
	t.distRestarts.Inc()
	t.journal.Record(tracespan.Span{
		Kind: tracespan.KindWorkerRestart, Worker: worker, Unit: -1, Attempt: attempt,
	})
}

// DistShardMerged records one worker shard merge: how many records it
// held, how many units only the shard knew about, and the merge time.
func (t *Telemetry) DistShardMerged(worker, records, recovered int, dur time.Duration) {
	if t == nil {
		return
	}
	t.distRecovered.Add(uint64(recovered))
	t.distShardMerge.Observe(dur.Seconds())
	t.journal.Record(tracespan.Span{
		Kind: tracespan.KindShardMerge, Worker: worker, Unit: -1, DurNanos: int64(dur),
		Detail: fmt.Sprintf("records=%d recovered=%d", records, recovered),
	})
}

// DistDuplicateDropped records a re-leased unit completing twice; the
// second completion is dropped, never re-applied.
func (t *Telemetry) DistDuplicateDropped(unit int) {
	if t == nil {
		return
	}
	t.distDuplicates.Inc()
}
