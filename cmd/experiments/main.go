// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run id[,id...]] [-n instructions] [-size bytes] [-workers n]
//
// Without -run, every registered experiment executes. All selected
// experiments run as one campaign ordered by trace, and their tables
// print in experiment order; the text format's per-experiment timing
// footers go to stderr, so stdout is deterministic. Use
// -list to see the available IDs. -format json emits one
// schema-versioned document holding every table plus per-experiment
// wall-clock times (see experiment.Document); -cpuprofile and
// -memprofile write pprof profiles of the run.
//
// Long campaigns are crash-safe: -checkpoint records every completed
// work unit atomically, -resume restores them bit-identically, and the
// first SIGINT/SIGTERM drains in-flight units, renders partial tables,
// saves the checkpoint, and exits 130 (a second signal aborts).
// -unit-timeout and -unit-retries bound individual work units.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"bcache/internal/dist/distrun"
	"bcache/internal/experiment"
	"bcache/internal/obs/metrics"
)

func main() {
	var (
		runIDs  = flag.String("run", "", "comma-separated experiment ids (default: all)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		n       = flag.Uint64("n", 0, "instructions per run (default: experiment default)")
		size    = flag.Int("size", 0, "L1 size in bytes (default 16384; fig12 manages its own sizes)")
		workers = flag.Int("workers", 0, "parallel benchmark runs (default GOMAXPROCS)")
		format  = flag.String("format", "text", "output format: text | csv | json")
		outPath = flag.String("o", "", "write output to this file instead of stdout")
		verify  = flag.Bool("verify", false, "run the reproduction checklist instead of experiments")
		seeds   = flag.Int("seeds", 0, "replicate miss-rate runs over N workload seeds and average")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")

		_ = flag.Int64("trace-cache-bytes", 0, "accepted and ignored: traces are streamed, never kept (the flag stays until the benchmark harness stops passing it)")

		ckptPath    = flag.String("checkpoint", "", "record every experiment's completed work units to this JSON file (atomic rewrite)")
		resume      = flag.Bool("resume", false, "load -checkpoint first and skip units already recorded (bit-identical); with -workers-procs, first merge the worker shards already in -dist-dir (recovers a crashed coordinator)")
		unitTimeout = flag.Duration("unit-timeout", 0, "abandon a single work unit running longer than this (0 = no deadline)")
		unitRetries = flag.Int("unit-retries", 0, "retries for timed-out or transient work units")

		workersProcs   = flag.Int("workers-procs", 0, "distribute the experiments' work units across this many worker subprocesses")
		workerMode     = flag.Bool("worker", false, "run as a distribution worker speaking the lease protocol on stdin/stdout (spawned by -workers-procs)")
		distDir        = flag.String("dist-dir", "", "directory for worker checkpoint shards (default: a temp dir)")
		leaseTTL       = flag.Duration("lease-ttl", 0, "re-lease a worker's units after this long without a heartbeat (default 30s)")
		workerRestarts = flag.Int("worker-restarts", 1, "times a dead worker subprocess is respawned (0 disables restarts)")

		telemetry   = flag.String("telemetry", "", "serve live telemetry (/metrics, /progress, /debug/pprof) on this host:port (:0 picks a port)")
		linger      = flag.Duration("telemetry-linger", 0, "keep the telemetry server up this long after the run (scrapers; SIGINT ends it early)")
		traceOut    = flag.String("trace-out", "", "write the scheduler span journal as JSONL to this file")
		traceChrome = flag.String("trace-chrome", "", "write the span journal as a Chrome trace-event file (chrome://tracing, Perfetto)")
	)
	flag.Parse()

	// Worker mode: the whole process is one protocol session on
	// stdin/stdout, spawned and supervised by a -workers-procs
	// coordinator. SIGINT (forwarded to the worker's process group by
	// the coordinator, or sent directly) drains the current unit and
	// exits 130 — the same convention as an interrupted normal run.
	if *workerMode {
		stop := make(chan struct{})
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			close(stop)
			<-sigc
			os.Exit(130)
		}()
		code := distrun.WorkerMain(os.Stdin, os.Stdout, stop, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
		os.Exit(code)
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	switch *format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}

	opts := experiment.DefaultOpts()
	if *n > 0 {
		opts.Instructions = *n
	}
	if *size > 0 {
		opts.L1Size = *size
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	if *seeds > 0 {
		opts.Seeds = *seeds
	}
	opts.UnitTimeout = *unitTimeout
	opts.UnitRetries = *unitRetries

	if *resume && *ckptPath == "" && (*distDir == "" || *workersProcs == 0) {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint, or -dist-dir with -workers-procs")
		os.Exit(2)
	}
	var ckpt *experiment.Checkpoint
	if *ckptPath != "" {
		var err error
		if *resume {
			ckpt, err = experiment.LoadCheckpoint(*ckptPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if w := ckpt.LoadWarning(); w != "" {
				fmt.Fprintf(os.Stderr, "warning: %s\n", w)
			}
			if n := ckpt.Len(); n > 0 {
				fmt.Fprintf(os.Stderr, "resuming: %d completed units restored from %s\n", n, *ckptPath)
			}
		} else {
			ckpt = experiment.NewCheckpoint(*ckptPath)
		}
		ckpt.SetAutosave(64)
		opts.Checkpoint = ckpt
	}

	// First SIGINT/SIGTERM stops claiming new work units; in-flight units
	// finish, partial tables render, the telemetry server drains, and the
	// checkpoint is saved. A second signal aborts immediately.
	stopc := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "\nexperiments: %v — finishing in-flight units and writing partial output (signal again to abort)\n", s)
		experiment.RequestStop()
		close(stopc)
		<-sigc
		fmt.Fprintln(os.Stderr, "experiments: second signal, aborting")
		os.Exit(130)
	}()

	// The telemetry hub is always installed: it is what times units for
	// the per-experiment digest. The HTTP server and journal exports are
	// opt-in; with them off nothing is served or written.
	tel := experiment.NewTelemetry(0, nil)
	experiment.SetTelemetry(tel)
	var telSrv *metrics.Server
	if *telemetry != "" {
		var err error
		telSrv, err = metrics.NewServer(*telemetry, tel.Registry(), func() any {
			return tel.ProgressSnapshot()
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s (/metrics /progress /debug/pprof)\n", telSrv.Addr())
	}
	// closeTelemetry drains and stops the server (idempotent) — before
	// the partial-JSON write on the interrupt path, so the exit-130
	// artifact never races a live scrape of half-written state.
	closeTelemetry := func() {
		if telSrv == nil {
			return
		}
		if err := telSrv.Close(2 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: shutdown: %v\n", err)
		}
		telSrv = nil
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *verify {
		_, failedChecks, err := experiment.Verify(opts, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if failedChecks > 0 {
			os.Exit(1)
		}
		return
	}

	var exps []experiment.Experiment
	if *runIDs == "" {
		exps = experiment.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiment.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	// Distribution phase: lease every declared unit of the selected
	// experiments to worker subprocesses first, merging their results
	// into the checkpoint. The normal in-process loop below then runs
	// those same units and finds each one already checkpointed, so the
	// rendered tables are bit-identical to a single-process run; the
	// analytic tables, which have no units, render in-process as always.
	if *workersProcs > 0 {
		if ckpt == nil {
			ckpt = experiment.NewCheckpoint("")
			opts.Checkpoint = ckpt
		}
		shardDir := *distDir
		tempShards := false
		if shardDir == "" {
			var err error
			shardDir, err = os.MkdirTemp("", "bcache-shards-")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			tempShards = true
		}
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var ids []string
		if *runIDs != "" {
			for _, e := range exps {
				ids = append(ids, e.ID)
			}
		}
		stats, err := distrun.RunCampaign(opts, ids, distrun.Options{
			Workers: *workersProcs,
			Command: func(slot, attempt int) *exec.Cmd {
				cmd := exec.Command(self, "-worker")
				cmd.Stderr = os.Stderr
				return cmd
			},
			ShardDir:      shardDir,
			LeaseTTL:      *leaseTTL,
			RestartBudget: *workerRestarts,
			ResumeShards:  *resume,
			Stop:          stopc,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if saveErr := ckpt.Save(); saveErr == nil && ckpt.Len() > 0 && *ckptPath != "" {
				fmt.Fprintf(os.Stderr, "checkpoint saved: %d units in %s (continue with -resume)\n", ckpt.Len(), *ckptPath)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dist: %d units — %d committed (%d shard-recovered), %d failed, %d unfinished, %d duplicates dropped; %d leases, %d expiries, %d restarts\n",
			stats.Units, stats.Committed, stats.ShardRecovered, stats.Failed, stats.Unfinished,
			stats.Duplicates, stats.Leases, stats.Expiries, stats.Restarts)
		if n := stats.Failed + stats.Unfinished; n > 0 && !stats.Interrupted {
			fmt.Fprintf(os.Stderr, "dist: %d units left to the in-process pass\n", n)
		}
		if !stats.Interrupted {
			if tempShards {
				os.RemoveAll(shardDir)
			}
		} else if tempShards {
			fmt.Fprintf(os.Stderr, "dist: shards kept in %s (resume with -dist-dir %s -resume)\n", shardDir, shardDir)
		} else {
			fmt.Fprintf(os.Stderr, "dist: shards kept in %s (continue with -resume)\n", shardDir)
		}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	// One trace-major campaign over every selected experiment; the
	// tables still print in experiment order. Per-experiment timing is
	// folded over the units each experiment owns, and goes to stderr in
	// the text format, so stdout is deterministic.
	var results []experiment.Result
	var runErr error
	outcomes := experiment.RunAll(opts, exps)
	for i, e := range exps {
		tables, err := outcomes[i].Tables, outcomes[i].Err
		start, elapsed := tel.ExperimentWindow(e.ID)
		timing := tel.EndExperiment(e.ID, start, elapsed)
		if err != nil {
			// A failed or interrupted experiment may still return partial
			// tables; render them before stopping.
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			runErr = err
		}
		switch *format {
		case "text":
			for _, t := range tables {
				fmt.Fprintln(out, t.Render())
			}
			if f := timing.Footer(); f != "" {
				fmt.Fprintf(os.Stderr, "[%s %s]\n", e.ID, f)
			}
			if err == nil {
				fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", e.ID, elapsed.Round(time.Millisecond))
			} else {
				fmt.Fprintf(os.Stderr, "[%s INCOMPLETE after %v]\n", e.ID, elapsed.Round(time.Millisecond))
			}
		case "csv":
			for _, t := range tables {
				if err := t.WriteCSV(out); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		case "json":
			r := experiment.Result{ID: e.ID, Title: e.Title, ElapsedSeconds: elapsed.Seconds(), UnitTiming: timing}
			for _, t := range tables {
				r.Tables = append(r.Tables, t.JSON())
			}
			results = append(results, r)
		}
		if err != nil {
			break
		}
	}

	// Hold the server up for scrapers on fast runs, then drain it before
	// any artifact is written; SIGINT cuts the linger short.
	if telSrv != nil && *linger > 0 && !experiment.Stopped() {
		select {
		case <-time.After(*linger):
		case <-stopc:
		}
	}
	closeTelemetry()

	if *traceOut != "" {
		if err := tel.Journal().WriteJSONLFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			if runErr == nil {
				runErr = err
			}
		} else {
			fmt.Fprintf(os.Stderr, "trace-out: %d spans to %s\n", tel.Journal().Len(), *traceOut)
		}
	}
	if *traceChrome != "" {
		if err := tel.Journal().WriteChromeTraceFile(*traceChrome); err != nil {
			fmt.Fprintf(os.Stderr, "trace-chrome: %v\n", err)
			if runErr == nil {
				runErr = err
			}
		} else {
			fmt.Fprintf(os.Stderr, "trace-chrome: %d spans to %s\n", tel.Journal().Len(), *traceChrome)
		}
	}

	if *format == "json" {
		if err := experiment.NewDocument(results).Write(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if ckpt != nil {
		if err := ckpt.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint save: %v\n", err)
			if runErr == nil {
				runErr = err
			}
		} else if runErr != nil {
			fmt.Fprintf(os.Stderr, "checkpoint saved: %d units in %s (continue with -resume)\n",
				ckpt.Len(), *ckptPath)
		}
	}
	if runErr != nil {
		if errors.Is(runErr, experiment.ErrInterrupted) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	if experiment.Stopped() {
		// The signal came after the last unit was claimed (during the
		// telemetry linger, say): the output is complete, but the run
		// still ends the way every interrupted run does.
		os.Exit(130)
	}
}
