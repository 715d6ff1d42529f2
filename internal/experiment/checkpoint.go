package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"bcache/internal/obs/tracespan"
	"bcache/internal/reclog"
)

// A checkpoint makes long campaigns crash-safe: every result a work
// unit commits is appended, under a self-describing key, to a record
// log (internal/reclog, the format worker shards use) the moment it
// commits, so a kill loses at most the record being appended, and a
// resumed run looks each unit up before simulating it. Each value is
// the JSON of the unit's own result type; results hold raw counters (or
// finite floats), which round-trip through JSON exactly, so a resumed
// run renders bit-identical tables — not approximately-equal ones.

// UnitResult is the committed outcome of one miss-rate work unit (and
// of the other units that need only miss counters): raw counters only,
// so resume is exact.
type UnitResult struct {
	Misses   uint64 `json:"misses"`
	Accesses uint64 `json:"accesses"`
	PDHit    uint64 `json:"pdHit,omitempty"`
	PDMiss   uint64 `json:"pdMiss,omitempty"`
	// Extra is the hit cycles spent beyond the first probe, summed over
	// every hit: a victim cache's buffer hits, a column cache's second
	// probes, and so on.
	Extra uint64 `json:"extra,omitempty"`
}

// missRate is Misses/Accesses, or 0 for a unit that saw no accesses
// (cache.Stats.MissRate on the stored counters).
func (u UnitResult) missRate() float64 {
	if u.Accesses == 0 {
		return 0
	}
	return float64(u.Misses) / float64(u.Accesses)
}

// Checkpoint is a concurrency-safe set of completed work units bound to
// a log file. A nil *Checkpoint is valid and inert, so call sites need
// no guards.
type Checkpoint struct {
	mu    sync.Mutex
	path  string
	units map[string]json.RawMessage // guarded by mu
	// log appends to path; nil until the first append opens it, after
	// the end bytes a load kept (0 starts a new log).
	log *reclog.Writer // guarded by mu
	end int64          // guarded by mu
	// err is the first append error; Close reports it. No record is
	// appended after it, since the failed write may have left torn bytes
	// that a later record would be stranded behind.
	err error // guarded by mu
	// afterRecord, when set, observes the total record count after each
	// Record — the hook the resume tests use to interrupt mid-run.
	afterRecord func(total int)
	// loadWarning names the torn logs LoadCheckpoint read ("" for clean
	// loads); see LoadWarning.
	loadWarning string
}

// NewCheckpoint returns an empty checkpoint bound to path ("" = purely
// in-memory). Its first record starts a new log there.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, units: map[string]json.RawMessage{}}
}

// LoadCheckpoint replays the log at path ("" = none; a missing file is
// empty) and then the worker shards, the last record of a key winning,
// and binds the result to path for further appends. A shard's records
// are appended to the checkpoint log as they load, so its results
// outlive the shard directory; its unit indices and plan are not read,
// since every key describes itself.
//
// A torn log — cut by a kill mid-append, or with a corrupted tail —
// does not fail the resume: its intact prefix loads, the loss is
// reported through LoadWarning, and the checkpoint's torn bytes are cut
// before its first append. A log written by another build is refused:
// resuming its counters would mix two engines' results in one table.
func LoadCheckpoint(path string, shards ...string) (*Checkpoint, error) {
	// Records replayed before c.path is set stay in memory: the
	// checkpoint's own are already in its log, a shard's are not.
	c := NewCheckpoint("")
	var torn []string
	load := func(p string) (*reclog.Log, error) {
		l, err := reclog.Read(p)
		if err != nil {
			return nil, err
		}
		if l.Torn {
			torn = append(torn, p)
		}
		for _, e := range l.Entries {
			for _, r := range e.Records {
				c.Record(r.Key, r.Val)
			}
		}
		return l, nil
	}
	if path != "" {
		l, err := load(path)
		switch {
		case os.IsNotExist(err):
		case err != nil:
			return nil, fmt.Errorf("experiment: checkpoint: %w", err)
		case l.Plan != 0:
			return nil, fmt.Errorf("experiment: %s is a worker shard of plan %016x, not a checkpoint", path, l.Plan)
		default:
			c.end = l.End
		}
	}
	c.path = path
	for _, shard := range shards {
		if _, err := load(shard); err != nil {
			return nil, fmt.Errorf("experiment: worker shard: %w", err)
		}
	}
	if len(torn) > 0 {
		c.loadWarning = fmt.Sprintf("torn tail dropped from %s; the intact records before it were restored",
			strings.Join(torn, ", "))
	}
	return c, nil
}

// LoadWarning reports the torn logs a load recovered from ("" for a
// clean load); callers surface it to the user.
func (c *Checkpoint) LoadWarning() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadWarning
}

// SetAfterRecord installs a hook observing the record count after each
// Record (test hook; pass nil to clear).
func (c *Checkpoint) SetAfterRecord(fn func(total int)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.afterRecord = fn
	c.mu.Unlock()
}

// Lookup returns the JSON of the result recorded under key, if any.
func (c *Checkpoint) Lookup(key string) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.units[key]
	return r, ok
}

// Record stores the JSON of a completed unit's result under key and
// appends it to the log, unless the key already holds the same bytes.
// An append error is kept for Close to report; the unit stays recorded
// in memory either way.
func (c *Checkpoint) Record(key string, r json.RawMessage) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if old, ok := c.units[key]; !ok || !bytes.Equal(old, r) {
		c.units[key] = r
		if c.path != "" && c.err == nil {
			c.err = c.appendLocked(key, r)
		}
	}
	total := len(c.units)
	hook := c.afterRecord
	c.mu.Unlock()
	if hook != nil {
		hook(total)
	}
}

func (c *Checkpoint) appendLocked(key string, r json.RawMessage) error {
	if c.log == nil {
		w, err := reclog.Open(c.path, 0, c.end)
		if err != nil {
			return fmt.Errorf("experiment: checkpoint: %w", err)
		}
		c.log = w
	}
	n, err := c.log.Append(reclog.Entry{Unit: -1, Records: []reclog.Record{{Key: key, Val: r}}})
	if err != nil {
		return fmt.Errorf("experiment: checkpoint append: %w", err)
	}
	// Emitting under c.mu is safe: telemetry never calls back into the
	// checkpoint, so there is no lock-order cycle.
	CurrentTelemetry().Emit(tracespan.Span{Kind: tracespan.KindCheckpoint, Worker: tracespan.SharedWorker,
		Unit: -1, Bytes: int64(n), Count: c.log.Size()})
	return nil
}

// Len returns the number of recorded units.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.units)
}

// Close closes the log file and reports the first error an append met.
// Every record is already on disk, so there is nothing left to write; a
// later Record reopens the log after its last record.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.err
	if c.log != nil {
		if cerr := c.log.Close(); err == nil {
			err = cerr
		}
		c.end = c.log.Size()
		c.log = nil
	}
	return err
}
