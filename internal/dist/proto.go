// Package dist runs a unit campaign across worker subprocesses without
// giving up the repo's core guarantee: the merged result is bit-identical
// to a single-process run.
//
// The division of labour is strict. This package knows about *units* —
// opaque integers 0..n-1 that execute into key/value records — and about
// the machinery of distributing them: a lease table granting units with
// deadlines and heartbeats, a JSONL wire protocol over
// each worker's stdin/stdout, shard files (internal/reclog record logs)
// that survive kill -9 mid-write, and a coordinator that re-leases the units
// of crashed, hung, or corrupt workers to survivors (restart budgets).
// The coordinator never executes a unit: what no worker finished is left
// to the caller. What a unit *means* — which cache replay it is, what
// keys it commits — lives with the caller (internal/dist/distrun binds
// it to experiment plans). The two sides agree on the unit space by
// fingerprint and on build identity, never by trust.
package dist

import (
	"encoding/json"

	"bcache/internal/reclog"
)

// ProtoVersion identifies the coordinator↔worker wire protocol. A worker
// built from a different protocol refuses the init message, because a
// silent mismatch could commit records under the wrong units.
const ProtoVersion = 3

// Record is one key/value pair committed by a unit. The value is opaque
// to this package; the caller defines (and versions) its layout.
type Record = reclog.Record

// Message types. The coordinator sends init, lease, and shutdown; the
// worker sends hello, result, unitErr, heartbeat, and bye. A worker holds
// at most one lease, and its result or unitErr ends it.
const (
	// MsgInit opens the session: protocol version, the coordinator's
	// build identity, the opaque campaign spec the worker rebuilds its
	// plan from, the shard path to append to, the plan fingerprint to
	// verify, and the heartbeat interval.
	MsgInit = "init"
	// MsgHello is the worker's acceptance: its plan length and
	// fingerprint (the coordinator double-checks both).
	MsgHello = "hello"
	// MsgLease grants one unit.
	MsgLease = "lease"
	// MsgResult commits the leased unit's records and ends the lease.
	// The worker has already appended the same records to its shard —
	// persist, then report — so a result lost to a crash is recovered
	// from the shard.
	MsgResult = "result"
	// MsgUnitErr reports that the leased unit's execution failed and
	// ends the lease; the coordinator marks the unit failed and never
	// re-leases it.
	MsgUnitErr = "unitErr"
	// MsgHeartbeat keeps the sender's lease alive while a long unit
	// executes; it carries nothing, and from an idle worker it is a
	// no-op.
	MsgHeartbeat = "heartbeat"
	// MsgShutdown asks the worker to finish its current unit, send bye,
	// and exit.
	MsgShutdown = "shutdown"
	// MsgBye is the worker's last message before a clean exit.
	MsgBye = "bye"
)

// Msg is the single wire envelope; Type selects which fields matter.
// Unit deliberately lacks omitempty: unit 0 must survive encoding.
type Msg struct {
	Type string `json:"type"`

	// init
	Proto           int             `json:"proto,omitempty"`
	Build           string          `json:"build,omitempty"`
	Spec            json.RawMessage `json:"spec,omitempty"`
	ShardPath       string          `json:"shardPath,omitempty"`
	HeartbeatMillis int64           `json:"heartbeatMillis,omitempty"`

	// init, hello: plan agreement
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Units       int    `json:"units,omitempty"`

	// lease, result, unitErr
	Unit int `json:"unit"`

	// result
	Records []Record `json:"records,omitempty"`

	// unitErr, hello (refusal), bye
	Err string `json:"err,omitempty"`

	// shutdown, bye: the drain was a user interrupt, not end-of-work
	Interrupted bool `json:"interrupted,omitempty"`
}
