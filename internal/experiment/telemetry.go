package experiment

import (
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
// (the /metrics exposition). Every event — from the scheduler, the
// runner's commit, the checkpoint, the trace cache and the distributed
// coordinator — arrives as one tracespan.Span through Emit, which
// records it and folds it into the instruments, the /progress counters
// and the per-experiment digests. So each of those is a function of the
// span sequence: replaying the journal through foldLocked rebuilds them. The
// CLIs install one hub per process with SetTelemetry; Emit and the
// other methods are nil-safe, so with no hub installed an emission site
// costs one nil check.
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

	// mu orders Emit: the journal and the fold see spans in one order.
	mu         sync.Mutex
	experiment string                     // guarded by mu
	folds      map[string]*experimentFold // guarded by mu
}

// experimentFold accumulates the unit attempts one experiment owns: the
// wall times of its completed units, the slowest of them, and the
// window from the first attempt's start to the last one's end (Unix
// nanoseconds).
type experimentFold struct {
	durs        []float64
	slowest     float64
	slowestKey  string
	first, last int64
}

// NewTelemetry builds a telemetry hub with a journal of journalCap
// spans (<= 0 uses the default) on the given clock (nil uses the wall
// clock).
func NewTelemetry(journalCap int, clock tracespan.Clock) *Telemetry {
	if clock == nil {
		clock = tracespan.Wall
	}
	reg := metrics.NewRegistry()
	return &Telemetry{
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
		checkpointSaves: reg.Counter("bcache_checkpoint_saves", "records appended to the checkpoint log"),
		traceBuilds:     reg.Counter("bcache_trace_cache_builds", "trace passes run: one generator run per trace group"),
		queueDepth:      reg.Gauge("bcache_queue_depth", "work units queued but not yet claimed"),
		inFlight:        reg.Gauge("bcache_units_in_flight", "work units currently executing"),
		checkpointBytes: reg.Gauge("bcache_checkpoint_bytes", "size of the checkpoint log after its last append"),
		traceCacheBytes: reg.Gauge("bcache_trace_cache_bytes", "chunk-buffer bytes of the running trace passes"),
		unitWall:        reg.Histogram("bcache_unit_wall_seconds", "wall time per work unit attempt", unitWallBounds),

		distLeases:     reg.Counter("dist_leases_granted", "trace-group leases granted to worker subprocesses"),
		distReleases:   reg.Counter("dist_releases", "leases released back to the pool (expiry or worker death)"),
		distRestarts:   reg.Counter("dist_worker_restarts", "dead worker subprocesses respawned"),
		distDuplicates: reg.Counter("dist_duplicates_dropped", "re-leased unit completions dropped (first commit wins)"),
		distRecovered:  reg.Counter("dist_shard_recovered_units", "units recovered from dead workers' shards"),
		distWorkers:    reg.Gauge("dist_workers_live", "worker subprocesses currently attached"),
		distShardMerge: reg.Histogram("dist_shard_merge_seconds", "wall time merging one worker shard", distMergeBounds),

		folds: map[string]*experimentFold{},
	}
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
// telemetry off). Install before starting runs; each scheduler call
// reads it once.
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
	return time.Unix(0, f.first), time.Duration(f.last - f.first)
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
	t.Emit(s)
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

// Emit records s in the journal and folds it. It is the hub's only
// event entry point.
func (t *Telemetry) Emit(s tracespan.Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.journal.Record(s)
	t.foldLocked(s)
}

// foldLocked applies one span to every view derived from the journal. It is
// the only code that changes an instrument (DESIGN.md §13 tabulates
// which kind moves which). Callers hold t.mu.
func (t *Telemetry) foldLocked(s tracespan.Span) {
	switch s.Kind {
	case tracespan.KindQueue:
		t.unitsQueued.Add(uint64(s.Count))
		t.queueDepth.Add(float64(s.Count))
	case tracespan.KindDrain:
		t.queueDepth.Add(-float64(s.Count))
	case tracespan.KindClaim:
		t.queueDepth.Add(-1)
		t.inFlight.Add(1)
	case tracespan.KindRelease:
		t.inFlight.Add(-1)
		if s.Err != "" {
			t.unitsFailed.Inc()
		}
	case tracespan.KindUnit:
		sec := time.Duration(s.DurNanos).Seconds()
		t.unitWall.Observe(sec)
		if s.Err == "" {
			t.unitsCompleted.Inc()
		}
		if s.Owner != "" {
			t.experiment = s.Owner
		}
		f := t.folds[s.Owner]
		if f == nil {
			f = &experimentFold{first: s.StartUnixNano, last: s.StartUnixNano}
			t.folds[s.Owner] = f
		}
		f.first = min(f.first, s.StartUnixNano)
		f.last = max(f.last, s.StartUnixNano+s.DurNanos)
		if s.Err == "" {
			f.durs = append(f.durs, sec)
			if sec > f.slowest || f.slowestKey == "" {
				f.slowest, f.slowestKey = sec, s.Name
			}
		}
	case tracespan.KindRetry:
		t.unitsRetried.Inc()
	case tracespan.KindAbandon:
		t.unitsAbandoned.Inc()
	case tracespan.KindPanic:
		t.unitsPanicked.Inc()
	case tracespan.KindAccesses:
		t.accesses.Add(uint64(s.Count))
	case tracespan.KindCheckpoint:
		t.checkpointSaves.Inc()
		t.checkpointBytes.Set(float64(s.Count))
	case tracespan.KindTraceBuild:
		t.traceBuilds.Inc()
		t.traceCacheBytes.Set(float64(s.Bytes))
	case tracespan.KindLease:
		t.distLeases.Inc()
	case tracespan.KindLeaseExpire:
		t.distReleases.Inc()
	case tracespan.KindWorkerStart:
		t.distWorkers.Add(1)
	case tracespan.KindWorkerExit:
		t.distWorkers.Add(-1)
		if s.Unit >= 0 {
			t.distReleases.Inc()
		}
	case tracespan.KindWorkerRestart:
		t.distRestarts.Inc()
	case tracespan.KindShardMerge:
		t.distRecovered.Add(uint64(s.Count))
		t.distShardMerge.Observe(time.Duration(s.DurNanos).Seconds())
	case tracespan.KindDuplicate:
		t.distDuplicates.Inc()
	}
}
