package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestMain doubles as a scripted worker subprocess: with the env hook
// set, the test binary speaks the worker protocol against a plan built
// from the coordinator's spec (same trick as the distrun chaos suite).
// That gives coordinator tests real subprocess deaths with scripted,
// deterministic behavior.
func TestMain(m *testing.M) {
	if os.Getenv("BCACHE_DIST_TEST_WORKER") == "1" {
		_, err := ServeWorker(os.Stdin, os.Stdout, WorkerConfig{
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
			Build: func(raw json.RawMessage) (Plan, error) {
				var spec scriptedSpec
				if err := json.Unmarshal(raw, &spec); err != nil {
					return nil, err
				}
				return scriptedPlan{spec: spec}, nil
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "scripted worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// scriptedSpec is the wire spec of the scripted test worker.
type scriptedSpec struct {
	Units int `json:"units"`
	// DieUnit, when >= 0, makes the first worker to execute that unit
	// create Sentinel, linger DieDelayMillis (so survivors go idle
	// first), and die without reporting; later executions of the unit —
	// Sentinel exists — succeed normally.
	DieUnit        int    `json:"dieUnit"`
	DieDelayMillis int    `json:"dieDelayMillis"`
	Sentinel       string `json:"sentinel"`
}

func (s scriptedSpec) fingerprint() uint64 { return uint64(0xD1E0 + s.Units) }

type scriptedPlan struct{ spec scriptedSpec }

func (p scriptedPlan) Len() int            { return p.spec.Units }
func (p scriptedPlan) Fingerprint() uint64 { return p.spec.fingerprint() }

func (p scriptedPlan) Exec(unit int) ([]Record, error) {
	if unit == p.spec.DieUnit && p.spec.Sentinel != "" {
		if _, err := os.Stat(p.spec.Sentinel); os.IsNotExist(err) {
			_ = os.WriteFile(p.spec.Sentinel, []byte("died here"), 0o644)
			time.Sleep(time.Duration(p.spec.DieDelayMillis) * time.Millisecond)
			os.Exit(3)
		}
	}
	return []Record{{
		Key: fmt.Sprintf("unit-%03d", unit),
		Val: json.RawMessage(fmt.Sprintf(`{"unit":%d}`, unit)),
	}}, nil
}

func scriptedCommand(t *testing.T) func(slot, attempt int) *exec.Cmd {
	t.Helper()
	return func(slot, attempt int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "BCACHE_DIST_TEST_WORKER=1")
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// TestWorkerDeathRegrantsToIdleSurvivor: a worker dies past its restart
// budget while the other worker is already idle (it was granted nothing
// when its last lease ended, because everything was leased out). The dead
// worker's returned units must be re-granted to the idle survivor —
// before the regrant sweep existed, no event ever offered them and the
// campaign hung with work pending and a live worker parked.
func TestWorkerDeathRegrantsToIdleSurvivor(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	spec := scriptedSpec{
		Units:   4,
		DieUnit: 0,
		// Long enough that the survivor finishes its three trivial units
		// and idles before the death; short enough for CI.
		DieDelayMillis: 1500,
		Sentinel:       filepath.Join(dir, "died-once"),
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	// One unit per lease: whichever worker gets unit 0 dies on it; the
	// other finishes units 1-3 and idles. RestartBudget 0 (explicit zero = never respawn) leaves the
	// dead worker's units unfinished unless they are re-granted.
	mc := newMemCommit()
	type outcome struct {
		stats Stats
		err   error
	}
	donec := make(chan outcome, 1)
	go func() {
		stats, err := Coordinate(Config{
			Units:         spec.Units,
			Fingerprint:   spec.fingerprint(),
			Spec:          specJSON,
			ShardDir:      dir,
			Workers:       2,
			RestartBudget: 0,
			Command:       scriptedCommand(t),
			Commit:        mc.commit,
		})
		donec <- outcome{stats, err}
	}()

	watchdog := time.NewTimer(60 * time.Second)
	defer watchdog.Stop()
	select {
	case <-watchdog.C:
		t.Fatal("campaign hung: dead worker's units were never re-granted to the idle survivor")
	case out := <-donec:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.stats.Committed != spec.Units || mc.len() != spec.Units {
			t.Fatalf("committed %d units (map %d), want %d; stats %+v",
				out.stats.Committed, mc.len(), spec.Units, out.stats)
		}
		if out.stats.Restarts != 0 {
			t.Fatalf("restarts = %d, want 0 (budget was explicitly zero)", out.stats.Restarts)
		}
		if out.stats.Unfinished != 0 {
			t.Fatalf("%d units unfinished; the survivor should have run them", out.stats.Unfinished)
		}
	}
}
