// Command bcachesim runs one benchmark against one level-one cache
// configuration and reports miss rates, PD statistics, and (with -ipc)
// whole-processor IPC and hierarchy traffic.
//
// Examples:
//
//	bcachesim -bench equake -cache bc:mf8:bas8:pol0
//	bcachesim -bench gcc -cache sa:4way:lru -side i
//	bcachesim -bench mcf -cache victim:16 -ipc
//	bcachesim -trace run.bct -cache bc:mf8:bas8:pol0
//	bcachesim -bench equake -cache sa:8way:lru -report run.json
//	bcachesim -bench gcc -cache bc:mf8:bas8:pol1 -cpuprofile cpu.pprof
//
// -cache takes a key of the engine registry (internal/cachespec), the
// keys the experiments' checkpoints use; -help and a bad key print its
// grammar.
//
// With -report the run also emits a schema-versioned JSON document
// (internal/obs.Report) holding totals, the set-balance classification,
// simulator throughput, and interval time-series (miss rate, PD miss
// rate, reprograms per kilo-access, per-set occupancy heat) sampled
// every -interval accesses. -cpuprofile/-memprofile write pprof data for
// the simulator's own hot loop.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/cachespec"
	"bcache/internal/core"
	"bcache/internal/cpu"
	"bcache/internal/fault"
	"bcache/internal/hier"
	"bcache/internal/obs"
	"bcache/internal/obs/metrics"
	"bcache/internal/stats"
	"bcache/internal/trace"
	"bcache/internal/victim"
	"bcache/internal/workload"
)

func main() {
	var (
		benchName  = flag.String("bench", "equake", "benchmark profile name (see -list)")
		tracePath  = flag.String("trace", "", "replay a trace file (.bct v1/v2 or Dinero .din) instead of a benchmark")
		profile    = flag.String("profile", "", "load a custom workload profile from a JSON file")
		list       = flag.Bool("list", false, "list benchmark names and exit")
		key        = flag.String("cache", "bc:mf8:bas8:pol0", "cache key: "+cachespec.Grammar())
		size       = flag.Int("size", 16*1024, "L1 cache size in bytes")
		line       = flag.Int("line", 32, "line size in bytes")
		n          = flag.Uint64("n", 2_000_000, "instructions to simulate")
		side       = flag.String("side", "d", "cache side for miss-rate mode: d | i")
		ipc        = flag.Bool("ipc", false, "run the full CPU model (both L1s of the chosen type)")
		reportPath = flag.String("report", "", "write a JSON run report (schema v"+strconv.Itoa(obs.SchemaVersion)+") to this file")
		interval   = flag.Uint64("interval", 8192, "report time-series sampling interval in accesses")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")

		faultRate    = flag.Float64("fault-rate", 0, "per-access soft-error injection probability (miss-rate mode only)")
		faultProtect = flag.String("fault-protect", "none", "fault protection model: none | parity | secded")
		faultSeed    = flag.Uint64("fault-seed", 1, "fault injector RNG seed")
		scrubEvery   = flag.Uint64("scrub-every", 4096, "PD scrub interval in accesses (0 = never)")

		telemetry = flag.String("telemetry", "", "serve live telemetry (/metrics, /progress, /debug/pprof) on this host:port (:0 picks a port)")
	)
	flag.Parse()

	if *list {
		for _, p := range workload.All() {
			fmt.Printf("%-14s %s\n", p.Name, p.Suite)
		}
		for _, m := range workload.Micros() {
			fmt.Printf("%-14s micro-benchmark\n", "micro-"+m)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	// First SIGINT/SIGTERM ends the input stream early: the summary and
	// (if requested) the report still cover everything simulated so far,
	// and the process exits 130. A second signal aborts immediately.
	var stop atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "\nbcachesim: %v — stopping after the current access, writing partial results (signal again to abort)\n", s)
		stop.Store(true)
		<-sigc
		fmt.Fprintln(os.Stderr, "bcachesim: second signal, aborting")
		os.Exit(130)
	}()

	cfg := runCfg{
		bench: *benchName, tracePath: *tracePath, profile: *profile,
		cache: *key, size: *size, line: *line, n: *n, side: *side, ipc: *ipc,
		reportPath: *reportPath, interval: *interval,
		faultRate: *faultRate, faultProtect: *faultProtect,
		faultSeed: *faultSeed, scrubEvery: *scrubEvery,
		stop: &stop,
	}
	if *telemetry != "" {
		simTel := newSimTelemetry(*n, &stop)
		telSrv, err := metrics.NewServer(*telemetry, simTel.reg, simTel.progress)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s (/metrics /progress /debug/pprof)\n", telSrv.Addr())
		cfg.tel = simTel
		// Drain and stop the server as soon as the simulation loop ends —
		// before the summary and report write, so the exit-130 partial
		// report never races a live scrape. Idempotent: the hook fires on
		// the normal path and the interrupt path alike.
		cfg.onDrained = func() {
			if telSrv == nil {
				return
			}
			simTel.done.Store(true)
			if err := telSrv.Close(2 * time.Second); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: shutdown: %v\n", err)
			}
			telSrv = nil
		}
		defer cfg.onDrained()
	}

	if err := run(cfg); err != nil {
		fail(err)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}
	if stop.Load() {
		pprof.StopCPUProfile() // the deferred stop never runs past os.Exit
		os.Exit(130)
	}
}

// runCfg carries the parsed flags into the testable simulation driver.
type runCfg struct {
	bench, tracePath, profile string
	cache                     string
	size, line                int
	n                         uint64
	side                      string
	ipc                       bool
	reportPath                string
	interval                  uint64
	faultRate                 float64
	faultProtect              string
	faultSeed                 uint64
	scrubEvery                uint64
	// stop, when set and flipped true (by the signal handler), ends the
	// input stream at the next record.
	stop *atomic.Bool
	// tel, when set, receives live record counts from the simulation loop.
	tel *simTelemetry
	// onDrained, when set, runs after the simulation loop finishes —
	// before the summary and report write — so a telemetry server can
	// drain and close ahead of any artifact.
	onDrained func()
}

// interrupted reports whether the signal handler requested a stop.
func (cfg runCfg) interrupted() bool { return cfg.stop != nil && cfg.stop.Load() }

// drained flushes pending telemetry counts and fires the onDrained hook.
func (cfg runCfg) drained(cs *countStream) {
	if cs != nil {
		cs.flush()
	}
	if cfg.onDrained != nil {
		cfg.onDrained()
	}
}

// simTelemetry is bcachesim's live-telemetry state: a registry with one
// batched record counter, plus the /progress snapshot. bcachesim has no
// scheduler, so this is deliberately smaller than experiment.Telemetry.
type simTelemetry struct {
	reg     *metrics.Registry
	records *metrics.Counter
	target  uint64
	stop    *atomic.Bool
	done    atomic.Bool
}

func newSimTelemetry(target uint64, stop *atomic.Bool) *simTelemetry {
	reg := metrics.NewRegistry()
	return &simTelemetry{
		reg:     reg,
		records: reg.Counter("bcachesim_trace_records", "trace records consumed by the simulation loop"),
		target:  target,
		stop:    stop,
	}
}

// progress is the /progress endpoint payload.
func (t *simTelemetry) progress() any {
	return struct {
		SchemaVersion      int    `json:"schemaVersion"`
		TargetInstructions uint64 `json:"targetInstructions"`
		Records            uint64 `json:"records"`
		Done               bool   `json:"done"`
		Interrupted        bool   `json:"interrupted"`
	}{1, t.target, t.records.Value(), t.done.Load(), t.stop != nil && t.stop.Load()}
}

// countBatch is how many trace records accumulate locally before one
// atomic add publishes them: the hot loop stays free of per-record
// shared-counter traffic.
const countBatch = 8192

// countStream wraps the input stream and publishes consumption to the
// telemetry counter in batches (remainder on end-of-stream or flush).
type countStream struct {
	inner trace.Stream
	ctr   *metrics.Counter
	batch uint64
}

func (s *countStream) Next() (trace.Record, bool) {
	rec, ok := s.inner.Next()
	if ok {
		if s.batch++; s.batch == countBatch {
			s.ctr.Add(countBatch)
			s.batch = 0
		}
	} else {
		s.flush()
	}
	return rec, ok
}

func (s *countStream) flush() {
	if s.batch > 0 {
		s.ctr.Add(s.batch)
		s.batch = 0
	}
}

// stopStream wraps a trace so a stop request ends it cleanly: the
// simulation loop drains as if the trace ran out, and every summary or
// report path downstream covers exactly the accesses already simulated.
type stopStream struct {
	inner trace.Stream
	stop  *atomic.Bool
}

func (s stopStream) Next() (trace.Record, bool) {
	if s.stop.Load() {
		return trace.Record{}, false
	}
	return s.inner.Next()
}

// run executes one simulation, prints the human-readable summary, and
// writes the JSON report if requested.
func run(cfg runCfg) error {
	design, err := cachespec.Parse(cfg.cache)
	if err != nil {
		return err
	}
	dSide := cfg.side == "d"
	if !dSide && cfg.side != "i" {
		return fmt.Errorf("bad -side %q (want d or i)", cfg.side)
	}
	build := func() (cache.Cache, error) { return design.New(cfg.size, cfg.line) }

	stream, err := openStream(cfg.bench, cfg.tracePath, cfg.profile)
	if err != nil {
		return err
	}
	if cfg.stop != nil {
		stream = stopStream{inner: stream, stop: cfg.stop}
	}
	var cs *countStream
	if cfg.tel != nil {
		cs = &countStream{inner: stream, ctr: cfg.tel.records}
		stream = cs
	}

	if cfg.ipc {
		if cfg.faultRate > 0 {
			return fmt.Errorf("-fault-rate is supported in miss-rate mode only, not with -ipc")
		}
		return runIPC(cfg, build, stream, cs)
	}

	c, err := build()
	if err != nil {
		return err
	}
	var inj *fault.Injector
	if cfg.faultRate > 0 {
		prot, err := fault.ParseProtection(cfg.faultProtect)
		if err != nil {
			return err
		}
		inj, err = fault.Wrap(c, fault.Config{
			Rate:       cfg.faultRate,
			Protection: prot,
			Seed:       cfg.faultSeed,
			ScrubEvery: cfg.scrubEvery,
		})
		if err != nil {
			return err
		}
		c = inj // replay through the injector; summaries use inj.Unwrap()
	}
	var sampler *obs.IntervalSampler
	var frames *stats.Frames
	sim := c // the access path: c, counting frames for the report
	if cfg.reportPath != "" {
		sampler = obs.NewIntervalSampler(cfg.interval, c.Geometry().Frames)
		if !cache.AttachProbe(c, sampler) {
			return fmt.Errorf("cache %q does not support -report time-series (no probe attach point)", cfg.cache)
		}
		frames = stats.NewFrames(c.Geometry().Frames)
		sim = frameCounting{c, frames}
	}

	lineMask := ^uint64(uint64(cfg.line) - 1)
	var curLine uint64 = ^uint64(0)
	var count uint64
	start := time.Now()
	for count < cfg.n {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		count++
		if dSide {
			if rec.Kind.IsMem() {
				sim.Access(rec.Mem, rec.Kind == trace.Store)
			}
		} else if l := uint64(rec.PC) & lineMask; l != curLine {
			curLine = l
			sim.Access(rec.PC, false)
		}
	}
	wall := time.Since(start)
	cfg.drained(cs)

	// Summaries and the report describe the underlying cache; the
	// injector is only the access path.
	base := c
	var ft *obs.FaultTotals
	if inj != nil {
		base = inj.Unwrap()
		invErr := inj.FinalScrub()
		counts := inj.Counts()
		scrub, passes := inj.ScrubTotals()
		prot, _ := fault.ParseProtection(cfg.faultProtect)
		ft = &obs.FaultTotals{
			Rate:         cfg.faultRate,
			Protection:   prot.String(),
			Seed:         cfg.faultSeed,
			Injected:     counts.Injected,
			Silent:       counts.Silent,
			Detected:     counts.Detected,
			Corrected:    counts.Corrected,
			ScrubPasses:  passes,
			ScrubRepairs: uint64(scrub.Repaired),
			Degraded:     inj.Degraded(),
		}
		inv := "ok"
		if invErr != nil {
			ft.Invariant = invErr.Error()
			if inj.Degraded() {
				inv = "degraded to direct-mapped"
			} else {
				inv = "VIOLATED: " + invErr.Error()
			}
		} else if inj.Degraded() {
			inv = "degraded to direct-mapped"
		}
		fmt.Printf("faults      : %d injected (%d silent, %d detected, %d corrected) at rate %g, protect=%s\n",
			counts.Injected, counts.Silent, counts.Detected, counts.Corrected, cfg.faultRate, ft.Protection)
		fmt.Printf("scrub       : %d passes, %d repairs, %d lines invalidated\n",
			passes, scrub.Repaired, scrub.LinesInvalidated)
		fmt.Printf("invariant   : %s\n", inv)
	}

	fmt.Printf("config      : %s (%s-side)\n", c.Name(), cfg.side)
	fmt.Printf("instructions: %d\n", count)
	fmt.Printf("stats       : %v\n", c.Stats())
	printPD(base, "PD")
	printThroughput(wall, c.Stats().Accesses, count)
	if cfg.interrupted() {
		fmt.Printf("interrupted : yes (partial results, %d of %d instructions)\n", count, cfg.n)
	}

	if cfg.reportPath != "" {
		r := obs.NewReport(base, frames)
		r.Config.Benchmark = benchLabel(cfg)
		r.Config.Side = cfg.side
		r.Config.Interrupted = cfg.interrupted()
		r.Fault = ft
		r.AttachSampler(sampler)
		r.SetThroughput(wall, count)
		if err := r.WriteFile(cfg.reportPath); err != nil {
			return err
		}
		fmt.Printf("report      : %s (%d samples, %d series)\n",
			cfg.reportPath, len(r.Samples), len(r.Series))
	}
	return nil
}

// runIPC drives the full CPU model over the two-level hierarchy.
func runIPC(cfg runCfg, build func() (cache.Cache, error), stream trace.Stream, cs *countStream) error {
	ic, err := build()
	if err != nil {
		return err
	}
	dc, err := build()
	if err != nil {
		return err
	}
	var frames *stats.Frames
	var d cache.Cache = dc // the D$ access path, counting frames for the report
	if cfg.reportPath != "" {
		frames = stats.NewFrames(dc.Geometry().Frames)
		d = frameCounting{dc, frames}
	}
	h, err := hier.New(ic, d, hier.Defaults())
	if err != nil {
		return err
	}
	var sampler *obs.IntervalSampler
	if cfg.reportPath != "" {
		// The report follows the data side: attach the sampler to the D$
		// and let the hierarchy add its writeback events.
		sampler = obs.NewIntervalSampler(cfg.interval, dc.Geometry().Frames)
		if !cache.AttachProbe(dc, sampler) {
			return fmt.Errorf("cache %q does not support -report time-series (no probe attach point)", cfg.cache)
		}
		h.SetProbe(sampler)
	}
	start := time.Now()
	res, err := cpu.Run(stream, h, cpu.Defaults(), cfg.n)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	cfg.drained(cs)
	fmt.Printf("config      : %s (both L1s)\n", ic.Name())
	fmt.Printf("instructions: %d\n", res.Instructions)
	fmt.Printf("cycles      : %d\n", res.Cycles)
	fmt.Printf("IPC         : %.4f\n", res.IPC())
	fmt.Printf("I$          : %v\n", ic.Stats())
	fmt.Printf("D$          : %v\n", dc.Stats())
	fmt.Printf("L2          : %v\n", h.L2.Stats())
	fmt.Printf("memory      : %d reads, %d writes\n", h.MemAccesses, h.MemWrites)
	printPD(ic, "I$")
	printPD(dc, "D$")
	printThroughput(wall, ic.Stats().Accesses+dc.Stats().Accesses, res.Instructions)
	if cfg.interrupted() {
		fmt.Printf("interrupted : yes (partial results, %d of %d instructions)\n", res.Instructions, cfg.n)
	}

	if cfg.reportPath != "" {
		r := obs.NewReport(dc, frames)
		r.Config.Benchmark = benchLabel(cfg)
		r.Config.Side = "d"
		r.Config.Interrupted = cfg.interrupted()
		r.AttachSampler(sampler)
		r.SetThroughput(wall, res.Instructions)
		if err := r.WriteFile(cfg.reportPath); err != nil {
			return err
		}
		fmt.Printf("report      : %s (%d samples, %d series)\n",
			cfg.reportPath, len(r.Samples), len(r.Series))
	}
	return nil
}

// frameCounting counts each access's Result.Frame into f on its way
// through: the per-frame counts behind the report's balance block.
type frameCounting struct {
	cache.Cache
	f *stats.Frames
}

// Access implements cache.Cache.
func (c frameCounting) Access(a addr.Addr, write bool) cache.Result {
	r := c.Cache.Access(a, write)
	c.f.Count(r)
	return r
}

// benchLabel names the input stream for the report.
func benchLabel(cfg runCfg) string {
	switch {
	case cfg.tracePath != "":
		return "trace:" + cfg.tracePath
	case cfg.profile != "":
		return "profile:" + cfg.profile
	}
	return cfg.bench
}

// printThroughput reports simulator speed (wall clock, not modelled
// hardware time).
func printThroughput(wall time.Duration, accesses, instructions uint64) {
	sec := wall.Seconds()
	if sec <= 0 {
		return
	}
	fmt.Printf("wall        : %v (%.2fM accesses/s, %.2fM instr/s)\n",
		wall.Round(time.Millisecond),
		float64(accesses)/sec/1e6, float64(instructions)/sec/1e6)
}

func printPD(c cache.Cache, label string) {
	if bc, ok := c.(*core.BCache); ok {
		fmt.Printf("%-12s: decode %s\n", label, bc.Describe())
		pd := bc.PDStats()
		fmt.Printf("%-12s: PD hits on miss %d, PD misses %d (hit rate during miss %.1f%%), reprogrammed %d\n",
			label, pd.MissPDHit, pd.MissPDMiss, 100*pd.HitRateDuringMiss(), pd.Programmed)
	}
	if vc, ok := c.(*victim.Cache); ok {
		fmt.Printf("%-12s: victim buffer hits %d\n", label, vc.BufferHits)
	}
}

func openStream(bench, path, profilePath string) (trace.Stream, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(path, ".din") {
			return trace.NewDineroReader(f), nil
		}
		return trace.OpenAny(f)
	}
	if profilePath != "" {
		f, err := os.Open(profilePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		p, err := workload.ParseJSON(f)
		if err != nil {
			return nil, err
		}
		return workload.New(p)
	}
	if rest, ok := strings.CutPrefix(bench, "micro-"); ok {
		p, err := workload.Micro(rest)
		if err != nil {
			return nil, err
		}
		return workload.New(p)
	}
	p, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	return workload.New(p)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bcachesim:", err)
	os.Exit(1)
}
