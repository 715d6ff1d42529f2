package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bcache/internal/obs/tracespan"
)

// A checkpoint makes long campaigns crash-safe: every result a work
// unit commits is recorded under a self-describing key, the file is
// rewritten atomically (temp + rename, so a crash mid-save leaves the
// previous checkpoint intact), and a resumed run looks each unit up
// before simulating it. Each value is the JSON of the unit's own result
// type; results hold raw counters (or finite floats), which round-trip
// through JSON exactly, so a resumed run renders bit-identical tables —
// not approximately-equal ones.

// CheckpointSchemaVersion identifies the checkpoint JSON layout.
const CheckpointSchemaVersion = 1

// UnitResult is the committed outcome of one miss-rate work unit (and
// of the other units that need only miss counters): raw counters only,
// so resume is exact.
type UnitResult struct {
	Misses   uint64 `json:"misses"`
	Accesses uint64 `json:"accesses"`
	PDHit    uint64 `json:"pdHit,omitempty"`
	PDMiss   uint64 `json:"pdMiss,omitempty"`
}

// missRate is Misses/Accesses, or 0 for a unit that saw no accesses
// (cache.Stats.MissRate on the stored counters).
func (u UnitResult) missRate() float64 {
	if u.Accesses == 0 {
		return 0
	}
	return float64(u.Misses) / float64(u.Accesses)
}

// checkpointFile is the on-disk layout.
type checkpointFile struct {
	SchemaVersion int                        `json:"schemaVersion"`
	Units         map[string]json.RawMessage `json:"units"`
}

// Checkpoint is a concurrency-safe set of completed work units bound to
// a file path. A nil *Checkpoint is valid and inert, so call sites need
// no guards.
type Checkpoint struct {
	mu    sync.Mutex
	path  string
	units map[string]json.RawMessage // guarded by mu
	dirty int                        // guarded by mu
	// autosaveEvery flushes to disk after that many new records
	// (0 = only on explicit Save).
	autosaveEvery int
	// afterRecord, when set, observes the total record count after each
	// Record — the hook the resume tests use to interrupt mid-run.
	afterRecord func(total int)
	// loadWarning describes a torn-file recovery performed by
	// LoadCheckpoint ("" for clean loads); see LoadWarning.
	loadWarning string
}

// NewCheckpoint returns an empty checkpoint bound to path ("" = purely
// in-memory).
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, units: map[string]json.RawMessage{}}
}

// LoadCheckpoint reads a checkpoint from path. A missing file is not an
// error — resuming a run that never started is an empty checkpoint.
//
// A torn file — truncated mid-write by a crash, or with a corrupted
// tail — does not fail the resume: the valid prefix of complete unit
// records is recovered and the loss is reported through LoadWarning, so
// hours of completed units survive losing at most the trailing record.
// Only a file whose schema version is unreadable or wrong is rejected;
// resuming under the wrong schema would silently poison every table.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	c := NewCheckpoint(path)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		ver, units, recErr := recoverCheckpointPrefix(data)
		if recErr != nil {
			return nil, fmt.Errorf("experiment: parse checkpoint %s: %w (prefix recovery: %v)", path, err, recErr)
		}
		if ver != CheckpointSchemaVersion {
			return nil, fmt.Errorf("experiment: checkpoint %s is schema v%d, this build reads v%d",
				path, ver, CheckpointSchemaVersion)
		}
		c.units = compactUnits(units)
		c.loadWarning = fmt.Sprintf("checkpoint %s is torn (%v); recovered the valid prefix of %d units",
			path, err, len(units))
		return c, nil
	}
	if f.SchemaVersion != CheckpointSchemaVersion {
		return nil, fmt.Errorf("experiment: checkpoint %s is schema v%d, this build reads v%d",
			path, f.SchemaVersion, CheckpointSchemaVersion)
	}
	if f.Units != nil {
		c.units = compactUnits(f.Units)
	}
	return c, nil
}

// compactUnits strips the file's indentation from every record, so a
// loaded value is byte-identical to the one its unit recorded.
func compactUnits(units map[string]json.RawMessage) map[string]json.RawMessage {
	for k, raw := range units {
		var b bytes.Buffer
		if json.Compact(&b, raw) == nil {
			units[k] = b.Bytes()
		}
	}
	return units
}

// recoverCheckpointPrefix walks a torn checkpoint token by token and
// keeps every complete unit record before the first decode error. The
// schema version must parse — a prefix so short it lost the version (or
// a file that is not a checkpoint at all) is unrecoverable, because
// resuming it would be a guess, not a recovery. Unit records are only
// kept when their key and value both decoded, so a record cut mid-value
// is dropped, not half-restored.
func recoverCheckpointPrefix(data []byte) (schemaVersion int, units map[string]json.RawMessage, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, terr := dec.Token(); terr != nil || tok != json.Delim('{') {
		return 0, nil, fmt.Errorf("no top-level object")
	}
	units = map[string]json.RawMessage{}
	sawVersion := false
	for {
		tok, terr := dec.Token()
		if terr != nil {
			break
		}
		key, ok := tok.(string)
		if !ok {
			break // closing delimiter or corruption; stop either way
		}
		switch key {
		case "schemaVersion":
			if derr := dec.Decode(&schemaVersion); derr != nil {
				return 0, nil, fmt.Errorf("schema version unreadable")
			}
			sawVersion = true
		case "units":
			if tok, terr := dec.Token(); terr != nil || tok != json.Delim('{') {
				return finishRecovery(schemaVersion, units, sawVersion)
			}
			for dec.More() {
				ktok, kerr := dec.Token()
				if kerr != nil {
					return finishRecovery(schemaVersion, units, sawVersion)
				}
				ukey, ok := ktok.(string)
				if !ok {
					return finishRecovery(schemaVersion, units, sawVersion)
				}
				var u json.RawMessage
				if derr := dec.Decode(&u); derr != nil {
					return finishRecovery(schemaVersion, units, sawVersion)
				}
				units[ukey] = u
			}
			if tok, terr := dec.Token(); terr != nil || tok != json.Delim('}') {
				return finishRecovery(schemaVersion, units, sawVersion)
			}
		default:
			// Unknown field (a future minor addition): skip its value.
			var skip json.RawMessage
			if derr := dec.Decode(&skip); derr != nil {
				return finishRecovery(schemaVersion, units, sawVersion)
			}
		}
	}
	return finishRecovery(schemaVersion, units, sawVersion)
}

// finishRecovery applies the one hard requirement of a recovery — the
// schema version must have been read — and returns the kept prefix.
func finishRecovery(ver int, units map[string]json.RawMessage, sawVersion bool) (int, map[string]json.RawMessage, error) {
	if !sawVersion {
		return 0, nil, fmt.Errorf("schema version missing from recoverable prefix")
	}
	return ver, units, nil
}

// LoadWarning reports how a torn checkpoint was recovered ("" for a
// clean load); callers surface it to the user.
func (c *Checkpoint) LoadWarning() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadWarning
}

// SetAutosave flushes the checkpoint to disk after every n new records.
func (c *Checkpoint) SetAutosave(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.autosaveEvery = n
	c.mu.Unlock()
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
// autosaves when due.
// Save errors during autosave are deliberately swallowed — the units
// stay recorded in memory and the caller's explicit Save will report
// persistent failures.
func (c *Checkpoint) Record(key string, r json.RawMessage) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, dup := c.units[key]; !dup {
		c.dirty++
	}
	c.units[key] = r
	total := len(c.units)
	hook := c.afterRecord
	if c.autosaveEvery > 0 && c.dirty >= c.autosaveEvery {
		_ = c.saveLocked()
	}
	c.mu.Unlock()
	if hook != nil {
		hook(total)
	}
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

// Save writes the checkpoint atomically: the JSON goes to a temporary
// file in the same directory, which then renames over the target, so
// readers only ever see a complete document.
func (c *Checkpoint) Save() error {
	if c == nil || c.path == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveLocked()
}

func (c *Checkpoint) saveLocked() error {
	if c.path == "" {
		return nil
	}
	data, err := json.MarshalIndent(checkpointFile{
		SchemaVersion: CheckpointSchemaVersion,
		Units:         c.units,
	}, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(c.path), filepath.Base(c.path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	c.dirty = 0
	// Emitting under c.mu is safe: telemetry never calls back into the
	// checkpoint, so there is no lock-order cycle.
	size := len(data) + 1
	CurrentTelemetry().Emit(tracespan.Span{Kind: tracespan.KindCheckpoint, Worker: tracespan.SharedWorker,
		Unit: -1, Bytes: int64(size), Detail: fmt.Sprintf("units=%d bytes=%d", len(c.units), size)})
	return nil
}
