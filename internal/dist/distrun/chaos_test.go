package distrun

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bcache/internal/dist"
	"bcache/internal/experiment"
	"bcache/internal/rng"
)

// TestMain doubles as the worker subprocess: when the env hook is set,
// the test binary is a distribution worker and nothing else. This is
// how the chaos suite gets real kill -9 targets without a separate
// binary.
func TestMain(m *testing.M) {
	if os.Getenv("BCACHE_DIST_WORKER") == "1" {
		stop := make(chan struct{})
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			close(stop)
			<-sigc
			os.Exit(130)
		}()
		os.Exit(WorkerMain(os.Stdin, os.Stdout, stop, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}))
	}
	os.Exit(m.Run())
}

// workerCommand re-execs this test binary in worker mode.
func workerCommand(slot, attempt int) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BCACHE_DIST_WORKER=1")
	cmd.Stderr = os.Stderr
	return cmd
}

// chaosOpts is the campaign scale: at 60k instructions fig5 is 15 trace
// groups (90 units) of real simulation and fig8 26 (156 units) — big
// enough that 4 workers overlap and seeded kills land mid-campaign,
// small enough for CI.
func chaosOpts(ckpt *experiment.Checkpoint) experiment.Opts {
	opts := experiment.DefaultOpts()
	opts.Instructions = 60_000
	opts.Checkpoint = ckpt
	return opts
}

// runSequentialOracle runs experiment id in-process with a fresh
// checkpoint and memo and returns the saved checkpoint bytes and the
// rendered tables.
func runSequentialOracle(t *testing.T, dir, id string) ([]byte, string, *experiment.Checkpoint) {
	t.Helper()
	path := filepath.Join(dir, "seq.json")
	ckpt := experiment.NewCheckpoint(path)
	opts := chaosOpts(ckpt)
	experiment.ResetUnitMemo()
	e, err := experiment.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, renderAll(tables), ckpt
}

// renderAll renders tables as text, then as CSV.
func renderAll(tables []*experiment.Table) string {
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Render())
		b.WriteString("\n")
	}
	for _, tb := range tables {
		if err := tb.WriteCSV(&b); err != nil {
			panic(err)
		}
	}
	return b.String()
}

// killer SIGKILLs worker process groups at seeded points in the result
// stream: deterministic decisions, real crash timing.
type killer struct {
	mu       sync.Mutex
	pids     map[int]int // slot -> live pid
	kills    int
	maxKills int
	next     int // results until the next kill
	r        *rng.Source
	results  int
	killed   []int // slots killed, in order
}

func newKiller(seed uint64, maxKills int) *killer {
	k := &killer{pids: map[int]int{}, maxKills: maxKills, r: rng.New(seed)}
	k.next = 3 + k.r.Intn(5)
	return k
}

func (k *killer) workerStarted(slot, attempt, pid int) {
	k.mu.Lock()
	k.pids[slot] = pid
	k.mu.Unlock()
}

func (k *killer) workerExited(slot int, err error) {
	k.mu.Lock()
	delete(k.pids, slot)
	k.mu.Unlock()
}

// resultCommitted is the kill trigger: after the seeded number of
// results, the slot that just reported dies mid-lease — the cruelest
// moment, with units leased and a shard mid-append.
func (k *killer) resultCommitted(worker, unit int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.results++
	if k.kills >= k.maxKills {
		return
	}
	k.next--
	if k.next > 0 {
		return
	}
	if pid, ok := k.pids[worker]; ok {
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		delete(k.pids, worker)
		k.kills++
		k.killed = append(k.killed, worker)
	}
	k.next = 3 + k.r.Intn(5)
}

// TestChaosKilledWorkersBitIdenticalMerge is the acceptance test: a
// 4-worker fig5 campaign with at least two seeded kill -9s mid-run must
// merge to a checkpoint file and rendered tables byte-identical to the
// sequential oracle.
func TestChaosKilledWorkersBitIdenticalMerge(t *testing.T) { chaosCampaign(t, "fig5") }

// TestChaosKilledWorkersFig8 runs the same chaos campaign on fig8's
// timed units, whose passes feed the CPU model records.
func TestChaosKilledWorkersFig8(t *testing.T) { chaosCampaign(t, "fig8") }

func chaosCampaign(t *testing.T, id string) {
	if testing.Short() {
		t.Skip("chaos suite spawns subprocesses")
	}
	dir := t.TempDir()
	seqBytes, seqRender, seqCkpt := runSequentialOracle(t, dir, id)

	// The plan seam identity check rides along: every planned group of
	// the campaign must already be Done in the oracle's checkpoint —
	// the plan enumerates exactly the units Run commits.
	plan, err := experiment.PlanCampaign(chaosOpts(nil), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() == 0 {
		t.Fatalf("%s plan is empty", id)
	}
	for i := 0; i < plan.Len(); i++ {
		if !plan.Done(i, seqCkpt) {
			t.Fatalf("planned group %d (keys %v) missing from the sequential checkpoint: plan and scheduler disagree", i, plan.UnitKeys(i))
		}
	}

	distPath := filepath.Join(dir, "dist.json")
	ckpt := experiment.NewCheckpoint(distPath)
	opts := chaosOpts(ckpt)
	k := newKiller(42, 2)
	shardDir := filepath.Join(dir, "shards")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stats, err := RunCampaign(opts, []string{id}, Options{
		Workers:       4,
		Command:       workerCommand,
		ShardDir:      shardDir,
		LeaseTTL:      20 * time.Second,
		RestartBudget: 2,
		Logf:          t.Logf,
		Events: dist.Events{
			WorkerStarted:   k.workerStarted,
			WorkerExited:    k.workerExited,
			ResultCommitted: k.resultCommitted,
		},
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if k.kills < 2 {
		t.Fatalf("chaos killed only %d workers, want >= 2 (results seen: %d)", k.kills, k.results)
	}
	t.Logf("chaos: killed slots %v; stats %+v", k.killed, stats)
	if stats.Failed > 0 {
		t.Fatalf("units failed terminally: %v", stats.FailedUnits)
	}
	if stats.Committed != plan.Len() {
		t.Fatalf("committed %d units, want %d", stats.Committed, plan.Len())
	}
	if stats.Restarts < 2 {
		t.Fatalf("restarts = %d, want >= 2 (both killed workers respawn)", stats.Restarts)
	}

	// The in-process pass renders from the merged checkpoint alone: on a
	// fresh memo and trace cache every distributed unit must hit, so no
	// trace is built.
	experiment.ResetUnitMemo()
	experiment.ResetTraceCache()
	e, err := experiment.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if builds := experiment.TraceCacheStats().Misses; builds != 0 {
		t.Errorf("rendering from the merged checkpoint built %d traces", builds)
	}
	if got := renderAll(tables); got != seqRender {
		t.Errorf("rendered tables differ from sequential oracle:\n--- dist ---\n%s--- seq ---\n%s", got, seqRender)
	}
	if err := ckpt.Save(); err != nil {
		t.Fatal(err)
	}
	distBytes, err := os.ReadFile(distPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(distBytes) != string(seqBytes) {
		t.Error("merged checkpoint bytes differ from the sequential oracle checkpoint")
	}
}

// TestSIGINTDrainsWorkersExit130: interrupting the campaign forwards the
// drain to real subprocesses, which exit with status 130 (the repo's
// interrupt convention), and the partial merged checkpoint still saves
// atomically and holds a subset of the oracle's values.
func TestSIGINTDrainsWorkersExit130(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	_, _, seqCkpt := runSequentialOracle(t, dir, "fig5")

	distPath := filepath.Join(dir, "partial.json")
	ckpt := experiment.NewCheckpoint(distPath)
	opts := chaosOpts(ckpt)

	stop := make(chan struct{})
	var stopOnce sync.Once
	var mu sync.Mutex
	var exitCodes []int
	stats, err := RunCampaign(opts, []string{"fig5"}, Options{
		Workers:     2,
		Command:     workerCommand,
		ShardDir:    t.TempDir(),
		LeaseTTL:    20 * time.Second,
		DrainWindow: 15 * time.Second,
		Stop:        stop,
		Logf:        t.Logf,
		Events: dist.Events{
			// First committed result pulls the plug, mid-campaign.
			ResultCommitted: func(worker, unit int) {
				stopOnce.Do(func() { close(stop) })
			},
			WorkerExited: func(slot int, err error) {
				mu.Lock()
				defer mu.Unlock()
				var ee *exec.ExitError
				if errors.As(err, &ee) {
					exitCodes = append(exitCodes, ee.ExitCode())
				} else if err == nil {
					exitCodes = append(exitCodes, 0)
				}
			},
		},
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if !stats.Interrupted {
		t.Fatal("stats.Interrupted = false after Stop fired")
	}
	mu.Lock()
	codes := append([]int(nil), exitCodes...)
	mu.Unlock()
	saw130 := false
	for _, c := range codes {
		if c == 130 {
			saw130 = true
		}
	}
	if !saw130 {
		t.Fatalf("no worker exited 130; exit codes: %v", codes)
	}

	// Partial checkpoint: atomic save, nonzero, and every value matches
	// the oracle bit-for-bit.
	if err := ckpt.Save(); err != nil {
		t.Fatal(err)
	}
	re, err := experiment.LoadCheckpoint(distPath)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() == 0 {
		t.Fatal("interrupted campaign committed nothing despite a result arriving")
	}
	if re.Len() != ckpt.Len() {
		t.Fatalf("reloaded %d units, saved %d", re.Len(), ckpt.Len())
	}
	mismatches := 0
	plan, err := experiment.PlanCampaign(chaosOpts(nil), []string{"fig5"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plan.Len(); i++ {
		for _, key := range plan.UnitKeys(i) {
			got, ok := re.Lookup(key)
			if !ok {
				continue
			}
			want, ok := seqCkpt.Lookup(key)
			if !ok || !bytes.Equal(got, want) {
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d partial-checkpoint values differ from the oracle", mismatches)
	}
}

// TestMergeShardDirRecoversCoordinatorCrash: shards alone — no result
// stream, no checkpoint — reconstruct every committed unit, the resume
// path for a coordinator that died before its final save.
func TestMergeShardDirRecoversCoordinatorCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	_, _, seqCkpt := runSequentialOracle(t, dir, "fig5")

	shardDir := filepath.Join(dir, "shards")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ckpt := experiment.NewCheckpoint("")
	opts := chaosOpts(ckpt)
	if _, err := RunCampaign(opts, []string{"fig5"}, Options{
		Workers:  2,
		Command:  workerCommand,
		ShardDir: shardDir,
		LeaseTTL: 20 * time.Second,
		Logf:     t.Logf,
	}); err != nil {
		t.Fatal(err)
	}

	// Pretend the coordinator crashed before saving: a fresh checkpoint
	// plus the shards must reconstruct everything.
	plan, err := experiment.PlanCampaign(chaosOpts(nil), []string{"fig5"})
	if err != nil {
		t.Fatal(err)
	}
	fresh := experiment.NewCheckpoint("")
	units, merged, err := MergeShardDir(shardDir, plan.Fingerprint(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if merged == 0 || units < plan.Len() {
		t.Fatalf("merge recovered %d/%d unit payloads", merged, units)
	}
	for i := 0; i < plan.Len(); i++ {
		for _, key := range plan.UnitKeys(i) {
			got, ok := fresh.Lookup(key)
			if !ok {
				t.Fatalf("unit key %s missing after shard merge", key)
			}
			want, _ := seqCkpt.Lookup(key)
			if !bytes.Equal(got, want) {
				t.Fatalf("unit key %s: shard value %s != oracle %s", key, got, want)
			}
		}
	}

	// A foreign fingerprint must refuse to merge.
	if _, _, err := MergeShardDir(shardDir, plan.Fingerprint()+1, experiment.NewCheckpoint("")); err == nil {
		t.Fatal("MergeShardDir accepted shards from another plan")
	}
}
