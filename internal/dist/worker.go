package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"bcache/internal/obs/tracespan"
	"bcache/internal/reclog"
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
	// A worker respawned after the binary was rebuilt mid-campaign is
	// another build: its results could differ from the campaign's.
	build, err := reclog.Self()
	if err == nil && build.String() != init.Build {
		err = fmt.Errorf("build mismatch: worker is build %s, coordinator is build %s", build, init.Build)
	}
	if err != nil {
		_ = send(Msg{Type: MsgHello, Err: err.Error()})
		return false, fmt.Errorf("dist: worker %w", err)
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
	shard, err := reclog.Open(init.ShardPath, init.Fingerprint, 0)
	if err != nil {
		_ = send(Msg{Type: MsgHello, Err: err.Error()})
		return false, fmt.Errorf("dist: worker creating shard: %w", err)
	}
	defer shard.Close()
	if err := send(Msg{Type: MsgHello, Fingerprint: init.Fingerprint, Units: plan.Len()}); err != nil {
		return false, err
	}

	// Heartbeats name no lease: the coordinator extends whatever lease
	// this worker's slot holds, so a long unit stays leased.
	stopHB := make(chan struct{})
	defer close(stopHB)
	if init.HeartbeatMillis > 0 {
		go func() {
			for {
				tracespan.Wall.Sleep(time.Duration(init.HeartbeatMillis) * time.Millisecond)
				select {
				case <-stopHB:
					return
				default:
				}
				_ = send(Msg{Type: MsgHeartbeat})
			}
		}()
	}

	// The protocol reader runs aside so the loop below can honor Stop
	// while it waits for the next message.
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
				// Persist, then report: a crash between the two loses
				// nothing — the coordinator merges the shard.
				recs, execErr := plan.Exec(m.Unit)
				reply := Msg{Type: MsgResult, Unit: m.Unit, Records: recs}
				if execErr != nil {
					logf("dist worker: unit %d: %v", m.Unit, execErr)
					reply = Msg{Type: MsgUnitErr, Unit: m.Unit, Err: execErr.Error()}
				} else if _, err := shard.Append(reclog.Entry{Unit: m.Unit, Records: recs}); err != nil {
					return false, fmt.Errorf("dist: worker shard append: %w", err)
				}
				if err := send(reply); err != nil {
					return false, err
				}
			}
		}
	}
}
