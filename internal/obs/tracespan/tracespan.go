// Package tracespan is the scheduler's flight recorder: a lock-cheap,
// bounded, in-memory journal of lifecycle spans — unit start/finish,
// retry and backoff, deadline abandons, panics, checkpoint autosaves,
// trace-cache hits and rebuilds — exportable as schema-versioned JSONL
// and as a Chrome trace-event timeline (chrome://tracing / Perfetto, one
// track per worker).
//
// The journal is deliberately simple: a preallocated ring under one
// mutex. Recording is O(1), allocation-free past the label strings the
// caller already holds, and safe from every worker goroutine. When the
// ring is full the oldest spans are overwritten (and counted), so a
// multi-hour campaign keeps its most recent window rather than growing
// without bound. Spans never feed back into simulation results; their
// timestamps come from the Clock seam (clock.go), which is the audited
// wall-clock boundary for the determinism analyzer.
package tracespan

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// SchemaVersion identifies the span JSONL layout (the meta line and the
// Span fields). Bump on any breaking change.
const SchemaVersion = 1

// Span kinds. KindUnit and KindExperiment are duration spans; the rest
// are instants on the timeline.
const (
	// KindUnit is one scheduled work unit from claim to completion.
	KindUnit = "unit"
	// KindRetry marks a retry being scheduled (Detail carries the
	// backoff delay; Attempt the attempt that just failed, 0-based).
	KindRetry = "retry"
	// KindAbandon marks a unit abandoned past its deadline.
	KindAbandon = "abandon"
	// KindPanic marks a unit that panicked (recovered by the scheduler).
	KindPanic = "panic"
	// KindCheckpoint marks a checkpoint save (Detail carries units/bytes).
	KindCheckpoint = "checkpoint"
	// KindTraceHit marks a trace-cache hit.
	KindTraceHit = "trace_hit"
	// KindTraceBuild is a trace-cache miss plus the build that filled it.
	KindTraceBuild = "trace_build"
	// KindTraceReload marked a spilled trace being read back from disk.
	// The trace cache no longer spills, so nothing emits it; it stays
	// for the benchmark harness, whose fold still matches it.
	KindTraceReload = "trace_reload"
	// KindExperiment spans the unit attempts one experiment owns.
	KindExperiment = "experiment"
	// KindLease marks a distributed lease being granted (Detail carries
	// the unit range; Worker the subprocess slot).
	KindLease = "lease"
	// KindLeaseExpire marks a lease missing its deadline and its units
	// returning to the pool.
	KindLeaseExpire = "lease_expire"
	// KindWorkerRestart marks a dead worker subprocess being respawned
	// (Attempt carries the incarnation number).
	KindWorkerRestart = "worker_restart"
	// KindShardMerge marks a worker's checkpoint shard being merged
	// (Detail carries records/recovered counts).
	KindShardMerge = "shard_merge"
)

// SharedWorker is the Worker value for spans not owned by one scheduler
// worker (checkpoint saves, trace-cache events observed on whichever
// goroutine got there first).
const SharedWorker = -1

// Span is one recorded event. StartUnixNano is wall time from the
// journal's Clock; DurNanos is zero for instants.
type Span struct {
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Worker int    `json:"worker"`
	// Unit is the scheduler unit index, -1 when not unit-scoped.
	Unit          int    `json:"unit"`
	Attempt       int    `json:"attempt,omitempty"`
	StartUnixNano int64  `json:"startUnixNano"`
	DurNanos      int64  `json:"durNanos,omitempty"`
	Err           string `json:"err,omitempty"`
	Detail        string `json:"detail,omitempty"`
}

// DefaultCapacity bounds a journal when the caller does not say
// otherwise: 64k spans is hours of scheduling at experiment grain, a few
// MB of memory at most.
const DefaultCapacity = 64 << 10

// Journal is a bounded concurrent span ring. A nil *Journal is valid and
// inert so emission sites need no guards beyond their own nil check.
type Journal struct {
	mu       sync.Mutex
	clock    Clock
	ring     []Span // guarded by mu
	start, n int    // guarded by mu
	recorded uint64 // guarded by mu
	dropped  uint64 // guarded by mu
}

// NewJournal returns a journal holding at most capacity spans
// (capacity <= 0 uses DefaultCapacity); clock nil uses Wall.
func NewJournal(capacity int, clock Clock) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if clock == nil {
		clock = Wall
	}
	return &Journal{clock: clock, ring: make([]Span, capacity)}
}

// Clock returns the journal's time source.
func (j *Journal) Clock() Clock {
	if j == nil {
		return Wall
	}
	return j.clock
}

// Record appends s, stamping StartUnixNano from the journal clock when
// the caller left it zero. When full, the oldest span is overwritten and
// counted in Dropped.
func (j *Journal) Record(s Span) {
	if j == nil {
		return
	}
	if s.StartUnixNano == 0 {
		s.StartUnixNano = j.clock.Now().UnixNano()
	}
	j.mu.Lock()
	if j.n == len(j.ring) {
		j.ring[j.start] = s
		j.start = (j.start + 1) % len(j.ring)
		j.dropped++
	} else {
		j.ring[(j.start+j.n)%len(j.ring)] = s
		j.n++
	}
	j.recorded++
	j.mu.Unlock()
}

// Len returns the number of spans currently held.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Recorded returns the total spans ever recorded (including overwritten).
func (j *Journal) Recorded() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recorded
}

// Dropped returns how many spans were overwritten by ring wrap.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Snapshot copies the held spans in record order.
func (j *Journal) Snapshot() []Span {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Span, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.ring[(j.start+i)%len(j.ring)]
	}
	return out
}

// Meta is the first line of a JSONL export: schema version plus journal
// accounting, so a consumer knows whether the span list is complete.
type Meta struct {
	SchemaVersion int    `json:"schemaVersion"`
	Spans         int    `json:"spans"`
	Recorded      uint64 `json:"recorded"`
	Dropped       uint64 `json:"dropped"`
}

// WriteJSONL writes the journal as JSON Lines: one Meta line, then one
// Span per line, in record order.
func (j *Journal) WriteJSONL(w io.Writer) error {
	spans := j.Snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := Meta{SchemaVersion: SchemaVersion, Spans: len(spans), Recorded: j.Recorded(), Dropped: j.Dropped()}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONLFile writes the JSONL export to path (0644, truncating).
func (j *Journal) WriteJSONLFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := j.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("tracespan: writing %s: %w", path, err)
	}
	return f.Close()
}

// ReadJSONL parses a JSONL export, rejecting unknown schema versions.
func ReadJSONL(r io.Reader) (Meta, []Span, error) {
	dec := json.NewDecoder(r)
	var meta Meta
	if err := dec.Decode(&meta); err != nil {
		return Meta{}, nil, fmt.Errorf("tracespan: parse meta line: %w", err)
	}
	if meta.SchemaVersion != SchemaVersion {
		return Meta{}, nil, fmt.Errorf("tracespan: journal schema v%d, this build reads v%d",
			meta.SchemaVersion, SchemaVersion)
	}
	var spans []Span
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return Meta{}, nil, fmt.Errorf("tracespan: parse span %d: %w", len(spans), err)
		}
		spans = append(spans, s)
	}
	return meta, spans, nil
}
