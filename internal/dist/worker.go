package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"bcache/internal/obs/tracespan"
)

// Plan is the worker's view of the campaign: an indexed unit space it
// rebuilt locally from the coordinator's spec. Fingerprint must fold the
// identity of every unit, so coordinator and worker cannot silently
// disagree about what unit i means.
type Plan interface {
	Len() int
	Fingerprint() uint64
	Exec(unit int) ([]Record, error)
}

// WorkerConfig parameterizes ServeWorker.
type WorkerConfig struct {
	// Build rebuilds the plan from the coordinator's opaque spec.
	Build func(spec json.RawMessage) (Plan, error)
	// Clock drives heartbeats (nil = tracespan.Wall).
	Clock tracespan.Clock
	// Stop, when closed, drains the worker directly (the process-group
	// SIGINT path): it finishes its current unit, sends an interrupted
	// bye, and returns true.
	Stop <-chan struct{}
	// Logf reports worker events to stderr (nil = silent).
	Logf func(format string, args ...any)
}

// ServeWorker runs the worker side of the protocol over in/out (the
// subprocess's stdin/stdout). It returns interrupted=true when the drain
// was a user interrupt — the caller maps that to exit status 130, the
// same convention as the in-process scheduler. Unit results are appended
// to the shard file *before* they are reported, so at any kill point the
// coordinator can recover everything the worker ever finished.
func ServeWorker(in io.Reader, out io.Writer, cfg WorkerConfig) (interrupted bool, err error) {
	clk := cfg.Clock
	if clk == nil {
		clk = tracespan.Wall
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var encMu sync.Mutex
	enc := json.NewEncoder(out)
	send := func(m Msg) error {
		encMu.Lock()
		defer encMu.Unlock()
		return enc.Encode(m)
	}

	dec := json.NewDecoder(in)
	var init Msg
	if err := dec.Decode(&init); err != nil {
		return false, fmt.Errorf("dist: worker read init: %w", err)
	}
	if init.Type != MsgInit || init.Proto != ProtoVersion {
		_ = send(Msg{Type: MsgHello, Err: fmt.Sprintf("want init proto %d, got %q proto %d", ProtoVersion, init.Type, init.Proto)})
		return false, fmt.Errorf("dist: worker got %q proto %d, want init proto %d", init.Type, init.Proto, ProtoVersion)
	}
	plan, err := cfg.Build(init.Spec)
	if err != nil {
		_ = send(Msg{Type: MsgHello, Err: err.Error()})
		return false, fmt.Errorf("dist: worker building plan: %w", err)
	}
	if fp := plan.Fingerprint(); fp != init.Fingerprint || plan.Len() != init.Units {
		msg := fmt.Sprintf("plan mismatch: built %d units fp %016x, coordinator has %d units fp %016x",
			plan.Len(), fp, init.Units, init.Fingerprint)
		_ = send(Msg{Type: MsgHello, Err: msg})
		return false, fmt.Errorf("dist: worker %s", msg)
	}
	shard, err := CreateShard(init.ShardPath, init.Fingerprint)
	if err != nil {
		_ = send(Msg{Type: MsgHello, Err: err.Error()})
		return false, fmt.Errorf("dist: worker creating shard: %w", err)
	}
	defer shard.Close()
	if err := send(Msg{Type: MsgHello, Fingerprint: init.Fingerprint, Units: plan.Len()}); err != nil {
		return false, err
	}

	// Heartbeats carry the lease currently being executed so the
	// coordinator extends the right deadline while a long unit runs.
	var curLease atomic.Int64
	stopHB := make(chan struct{})
	defer close(stopHB)
	if init.HeartbeatMillis > 0 {
		go func() {
			for {
				clk.Sleep(time.Duration(init.HeartbeatMillis) * time.Millisecond)
				select {
				case <-stopHB:
					return
				default:
				}
				_ = send(Msg{Type: MsgHeartbeat, Lease: int(curLease.Load())})
			}
		}()
	}

	// The protocol reader runs aside so lease execution can poll for
	// shutdown between units without blocking on stdin.
	msgs := make(chan Msg, 8)
	go func() {
		defer close(msgs)
		for {
			var m Msg
			if err := dec.Decode(&m); err != nil {
				return
			}
			select {
			case msgs <- m:
			case <-stopHB:
				return
			}
		}
	}()

	bye := func(interrupted bool) (bool, error) {
		_ = send(Msg{Type: MsgBye, Interrupted: interrupted})
		return interrupted, nil
	}

	for {
		select {
		case <-cfg.Stop:
			return bye(true)
		case m, ok := <-msgs:
			if !ok {
				// Coordinator vanished; nothing left to report to.
				return false, nil
			}
			switch m.Type {
			case MsgShutdown:
				return bye(m.Interrupted)
			case MsgLease:
				curLease.Store(int64(m.Lease))
				for u := m.Start; u < m.End; u++ {
					// Between units, honor a drain that arrived mid-lease.
					select {
					case <-cfg.Stop:
						return bye(true)
					case m2, ok := <-msgs:
						if !ok {
							return false, nil
						}
						if m2.Type == MsgShutdown {
							return bye(m2.Interrupted)
						}
					default:
					}
					recs, execErr := plan.Exec(u)
					if execErr != nil {
						logf("dist worker: unit %d: %v", u, execErr)
						if err := send(Msg{Type: MsgUnitErr, Lease: m.Lease, Unit: u, Err: execErr.Error()}); err != nil {
							return false, err
						}
						continue
					}
					// Persist, then report: a crash between the two loses
					// nothing — the coordinator merges the shard.
					if err := shard.Append(ShardPayload{Unit: u, Records: recs}); err != nil {
						return false, fmt.Errorf("dist: worker shard append: %w", err)
					}
					if err := send(Msg{Type: MsgResult, Lease: m.Lease, Unit: u, Records: recs}); err != nil {
						return false, err
					}
				}
				curLease.Store(0)
				if err := send(Msg{Type: MsgLeaseDone, Lease: m.Lease}); err != nil {
					return false, err
				}
			}
		}
	}
}
