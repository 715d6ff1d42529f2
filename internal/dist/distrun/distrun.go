// Package distrun binds the generic distribution machinery of
// internal/dist to this repo's experiment plans: it is the only place
// that knows both what a dist unit *is* (one planned trace group, whose
// units of any experiment run as one pass and commit checkpoint
// records) and how units are farmed out (leases, shards, worker
// subprocesses). cmd/experiments calls RunCampaign on the
// coordinator side and WorkerMain from its -worker mode; both rebuild
// the same deterministic plan from the same CampaignSpec, and the plan
// fingerprint proves they agree before any unit runs.
package distrun

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"time"

	"bcache/internal/dist"
	"bcache/internal/experiment"
	"bcache/internal/obs/tracespan"
)

// SpecSchemaVersion identifies the CampaignSpec JSON layout sent to
// workers in the init message.
const SpecSchemaVersion = 1

// CampaignSpec is everything a worker needs to rebuild the coordinator's
// plan: the experiment IDs plus the Opts fields that shape unit identity.
// Scheduling-only knobs (Workers, UnitTimeout, checkpoint) stay out — a
// worker executes one leased group at a time as one pass, and including
// them would make equal plans look different.
type CampaignSpec struct {
	SchemaVersion int      `json:"schemaVersion"`
	IDs           []string `json:"ids,omitempty"`
	Instructions  uint64   `json:"instructions"`
	L1Size        int      `json:"l1Size"`
	LineBytes     int      `json:"lineBytes"`
	Seeds         int      `json:"seeds,omitempty"`
}

// SpecFor captures opts and ids as a wire spec.
func SpecFor(opts experiment.Opts, ids []string) CampaignSpec {
	return CampaignSpec{
		SchemaVersion: SpecSchemaVersion,
		IDs:           ids,
		Instructions:  opts.Instructions,
		L1Size:        opts.L1Size,
		LineBytes:     opts.LineBytes,
		Seeds:         opts.Seeds,
	}
}

// Opts rebuilds the execution options a worker runs units under.
func (s CampaignSpec) Opts() experiment.Opts {
	return experiment.Opts{
		Instructions: s.Instructions,
		L1Size:       s.L1Size,
		LineBytes:    s.LineBytes,
		Seeds:        s.Seeds,
		Workers:      1,
	}
}

// WorkerMain is the whole worker subprocess: speak the protocol over
// in/out, execute leased units, exit. The returned code follows the
// repo's convention — 0 clean, 1 error, 130 interrupted — so a worker
// drained by SIGINT is indistinguishable from any other interrupted run.
func WorkerMain(in io.Reader, out io.Writer, stop <-chan struct{}, logf func(format string, args ...any)) int {
	interrupted, err := dist.ServeWorker(in, out, dist.WorkerConfig{
		Stop: stop,
		Logf: logf,
		Build: func(raw json.RawMessage) (dist.Plan, error) {
			var spec CampaignSpec
			if err := json.Unmarshal(raw, &spec); err != nil {
				return nil, fmt.Errorf("distrun: parse campaign spec: %w", err)
			}
			if spec.SchemaVersion != SpecSchemaVersion {
				return nil, fmt.Errorf("distrun: campaign spec schema v%d, this build speaks v%d",
					spec.SchemaVersion, SpecSchemaVersion)
			}
			plan, err := experiment.PlanCampaign(spec.Opts(), spec.IDs)
			if err != nil {
				return nil, err
			}
			return plan, nil
		},
	})
	if err != nil {
		if logf != nil {
			logf("worker: %v", err)
		}
		return 1
	}
	if interrupted {
		return 130
	}
	return 0
}

// Options parameterizes a coordinator-side campaign.
type Options struct {
	// Workers is the subprocess count; Command builds each (unstarted)
	// worker command — typically the running binary re-exec'd with
	// -worker.
	Workers int
	Command func(slot, attempt int) *exec.Cmd
	// ShardDir holds the per-worker shard files.
	ShardDir string
	// LeaseTTL and DrainWindow tune fault handling (zero = dist
	// defaults); RestartBudget is how many times a dead worker is
	// respawned (0 = never).
	LeaseTTL      time.Duration
	DrainWindow   time.Duration
	RestartBudget int
	// Stop drains the campaign when closed (the SIGINT seam).
	Stop <-chan struct{}
	// Logf reports campaign events (nil = silent).
	Logf func(format string, args ...any)
	// Events adds observation hooks on top of the telemetry wiring
	// (chaos tests inject kill switches here).
	Events dist.Events
}

// RunCampaign distributes every trace group of the named experiments
// across worker subprocesses, one group per lease, committing results
// into opts.Checkpoint. A group some of whose units the checkpoint
// already holds is leased whole: a worker has no checkpoint, so it runs
// every unit of the group, and the values it returns for the held keys
// are the ones already there. It runs no unit itself. After it returns, running the experiments in-process
// finds every distributed unit in the checkpoint — same keys, same
// values — which is what makes the rendered tables bit-identical to a
// single-process run; that pass also runs every unit the workers did
// not finish (Stats.Unfinished) or failed.
func RunCampaign(opts experiment.Opts, ids []string, o Options) (dist.Stats, error) {
	ckpt := opts.Checkpoint
	if ckpt == nil {
		return dist.Stats{}, fmt.Errorf("distrun: campaign needs opts.Checkpoint (results have nowhere to merge)")
	}
	plan, err := experiment.PlanCampaign(opts, ids)
	if err != nil {
		return dist.Stats{}, err
	}
	specJSON, err := json.Marshal(SpecFor(opts, ids))
	if err != nil {
		return dist.Stats{}, err
	}
	cfg := dist.Config{
		Units:         plan.Len(),
		Fingerprint:   plan.Fingerprint(),
		Spec:          specJSON,
		ShardDir:      o.ShardDir,
		Workers:       o.Workers,
		Command:       o.Command,
		LeaseTTL:      o.LeaseTTL,
		DrainWindow:   o.DrainWindow,
		RestartBudget: o.RestartBudget,
		AlreadyDone:   func(i int) bool { return plan.Done(i, ckpt) },
		// Results round-trip through JSON exactly, so a distributed unit
		// commits bit-identical values to an in-process one.
		Commit: func(unit int, recs []dist.Record) error {
			for _, r := range recs {
				ckpt.Record(r.Key, r.Val)
			}
			return nil
		},
		Stop:   o.Stop,
		Logf:   o.Logf,
		Events: telemetryEvents(o.Events),
	}
	return dist.Coordinate(cfg)
}

// telemetryEvents maps each coordinator hook to one span emitted into
// the process-wide telemetry hub, layered over any caller-supplied hooks.
func telemetryEvents(extra dist.Events) dist.Events {
	emit := func(s tracespan.Span) { experiment.CurrentTelemetry().Emit(s) }
	ev := extra
	ev.LeaseGranted = func(slot, unit int) {
		emit(tracespan.Span{Kind: tracespan.KindLease, Worker: slot, Unit: unit})
		if extra.LeaseGranted != nil {
			extra.LeaseGranted(slot, unit)
		}
	}
	ev.LeaseExpired = func(slot, unit int) {
		emit(tracespan.Span{Kind: tracespan.KindLeaseExpire, Worker: slot, Unit: unit})
		if extra.LeaseExpired != nil {
			extra.LeaseExpired(slot, unit)
		}
	}
	ev.WorkerStarted = func(slot, attempt, pid int) {
		emit(tracespan.Span{Kind: tracespan.KindWorkerStart, Worker: slot, Unit: -1, Attempt: attempt})
		if extra.WorkerStarted != nil {
			extra.WorkerStarted(slot, attempt, pid)
		}
	}
	ev.WorkerExited = func(slot, unit int, err error) {
		s := tracespan.Span{Kind: tracespan.KindWorkerExit, Worker: slot, Unit: unit}
		if err != nil {
			s.Err = err.Error()
		}
		emit(s)
		if extra.WorkerExited != nil {
			extra.WorkerExited(slot, unit, err)
		}
	}
	ev.WorkerRestarted = func(slot, attempt int) {
		emit(tracespan.Span{Kind: tracespan.KindWorkerRestart, Worker: slot, Unit: -1, Attempt: attempt})
		if extra.WorkerRestarted != nil {
			extra.WorkerRestarted(slot, attempt)
		}
	}
	ev.ShardMerged = func(slot, records, recovered int, dur time.Duration) {
		emit(tracespan.Span{Kind: tracespan.KindShardMerge, Worker: slot, Unit: -1, DurNanos: int64(dur),
			Count: int64(recovered), Detail: fmt.Sprintf("records=%d recovered=%d", records, recovered)})
		if extra.ShardMerged != nil {
			extra.ShardMerged(slot, records, recovered, dur)
		}
	}
	ev.DuplicateDropped = func(unit int) {
		emit(tracespan.Span{Kind: tracespan.KindDuplicate, Worker: tracespan.SharedWorker, Unit: unit})
		if extra.DuplicateDropped != nil {
			extra.DuplicateDropped(unit)
		}
	}
	return ev
}
