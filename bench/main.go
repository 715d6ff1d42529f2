// Command bench is the repository's benchmark: it measures what a user
// regenerating the paper's tables pays, per workload, and splits the
// time by layer.
//
// With -trace 0 it runs the experiments CLI as a child process, with
// tracing off, and reports end-to-end host cost: wall time, CPU time,
// peak RSS, and the CLI's set-up time. With -trace 1 it also runs each
// workload in-process with the telemetry journal on and reports the
// per-layer ledger folded from that journal, plus single-threaded probes
// of each layer. Every run checks each experiment's CSV output against
// the golden digests in golden.json. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// bench/run.sh builds this command and the experiments CLI and runs it
// from the repository root; see bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"bcache/internal/obs/tracespan"
)

const (
	schemaVersion = 1
	// workDir holds what bench/run.sh builds (the experiments binary among
	// it) and what a run leaves: child temp dirs, results and span files.
	workDir = ".bench_build"
	// setupPerRound is how many set-up probes open each measured round.
	// Spreading them over the run, rather than taking them in one burst,
	// averages over the host's speed drift the way the other metrics do.
	setupPerRound = 3
	// tracedRounds is how many traced passes of each workload a traced
	// run takes the per-layer medians of.
	tracedRounds = 3
)

// machine identifies where a result was measured; -compare refuses to
// compare results from different machines.
type machine struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// result is one run's record, written as JSON for -compare.
type result struct {
	SchemaVersion int                        `json:"schemaVersion"`
	Machine       machine                    `json:"machine"`
	Commit        string                     `json:"commit"`
	Dirty         bool                       `json:"dirty"`
	Seed          uint64                     `json:"seed"`
	Seconds       int                        `json:"seconds"`
	Trace         bool                       `json:"trace"`
	Rounds        int                        `json:"rounds"`
	Attempted     int                        `json:"attempted"`
	Failed        int                        `json:"failed"`
	Problems      []string                   `json:"problems,omitempty"`
	Workloads     map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Args      []string           `json:"args"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	Layers    map[string]summary `json:"layers,omitempty"`
}

type config struct {
	seed    uint64
	seconds int
	rounds  int
	trace   bool
	workers int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: suite, missrate-spill, timed, sweep, or all (round-robin)")
		seed    = fs.Uint64("seed", 1, "recorded in the result; the experiments CLI takes no workload seed, so inputs do not change with it")
		seconds = fs.Int("seconds", 0, "keep measuring rounds until this many seconds have passed")
		trace   = fs.Int("trace", 0, "1: also run traced in-process passes and report the per-layer ledger")
		rounds  = fs.Int("rounds", 5, "minimum measured rounds (one run of every selected workload each)")
		outPath = fs.String("o", "", "result file (default .bench_build/results/<workload>-seed<seed>-trace<t>.json)")
		compare = fs.Bool("compare", false, "compare two result files: -compare parent.json change.json")
		update  = fs.Bool("update-golden", false, "rewrite bench/golden.json from one run of every workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare parent.json change.json")
			return 2
		}
		if err := runCompare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if (*trace != 0 && *trace != 1) || *rounds < 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1, and -rounds at least 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, rounds: *rounds, trace: *trace == 1, workers: runtime.NumCPU()}
	if *update {
		if err := updateGolden(cfg, filepath.Join("bench", "golden.json")); err != nil {
			return fail(err)
		}
		return 0
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		return fail(err)
	}
	g, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	res, journals, err := measure(ws, cfg, g)
	if err != nil {
		return fail(err)
	}
	if *outPath == "" {
		*outPath = filepath.Join(workDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, cfg.seed, *trace))
	}
	if err := writeJSON(*outPath, res); err != nil {
		return fail(err)
	}
	for wname, j := range journals {
		path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", wname, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fail(err)
		}
		if err := j.WriteJSONLFile(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	fmt.Fprintf(stdout, "result: %s\n", *outPath)
	printResult(stdout, res, ws, cfg.trace)
	return 0
}

// measure runs one discarded warm-up run per workload and then measured
// rounds until both cfg.rounds rounds and cfg.seconds have passed. Each
// round opens with the set-up probes and then runs every selected
// workload once, starting one workload later than the round before.
// With tracing on, tracedRounds rounds of in-process traced passes and
// the probes follow. It returns the result and, with tracing on, each
// workload's last traced journal.
//
// Every child runs before any traced pass: a child starts as a vfork of
// this process, so its ru_maxrss also counts this process's peak RSS,
// which must still be far below the child's.
func measure(ws []workloadSpec, cfg config, g golden) (*result, map[string]*tracespan.Journal, error) {
	tmp, err := tmpDir()
	if err != nil {
		return nil, nil, err
	}
	// Traced passes spill trace files through os.TempDir; keep them in
	// the work directory too.
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, nil, err
	}
	commit, dirty := vcsState()
	res := &result{
		SchemaVersion: schemaVersion, Machine: thisMachine(), Commit: commit, Dirty: dirty,
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Workloads: map[string]*workloadResult{},
	}
	count := func(wr *workloadResult, attempted, failed int, why []string) {
		res.Attempted += attempted
		res.Failed += failed
		res.Problems = append(res.Problems, why...)
		if wr != nil {
			wr.Attempted += attempted
			wr.Failed += failed
		}
	}
	check := func(wr *workloadResult, args, ids []string, want map[string]string) (childRun, error) {
		r, err := runChild(experimentsBin, args, tmp)
		if err != nil {
			return r, err
		}
		f, why := r.failures(ids, want)
		count(wr, len(ids), f, why)
		return r, nil
	}

	for _, w := range ws {
		wr := &workloadResult{Args: w.args(cfg.workers), Metrics: map[string]summary{}}
		res.Workloads[w.name] = wr
		if _, err := check(wr, wr.Args, w.ids, g[w.name]); err != nil {
			return nil, nil, err
		}
	}

	samples := map[string]map[string][]float64{}
	add := func(w, metric string, v float64) {
		if samples[w] == nil {
			samples[w] = map[string][]float64{}
		}
		samples[w][metric] = append(samples[w][metric], v)
	}
	var setup []float64
	start := time.Now()
	for ; res.Rounds < cfg.rounds || time.Since(start) < time.Duration(cfg.seconds)*time.Second; res.Rounds++ {
		for i := 0; i < setupPerRound; i++ {
			r, err := check(nil, setupArgs, []string{"table1"}, g[setupGolden])
			if err != nil {
				return nil, nil, err
			}
			setup = append(setup, r.wallS)
		}
		for k := range ws {
			w := ws[(res.Rounds+k)%len(ws)]
			r, err := check(res.Workloads[w.name], res.Workloads[w.name].Args, w.ids, g[w.name])
			if err != nil {
				return nil, nil, err
			}
			add(w.name, "wall_s", r.wallS)
			add(w.name, "cpu_s", r.cpuS)
			add(w.name, "peak_rss_mb", r.rssMB)
		}
	}

	journals := map[string]*tracespan.Journal{}
	for round := 0; cfg.trace && round < tracedRounds; round++ {
		for _, w := range ws {
			tp, err := runTraced(w, cfg.workers, g[w.name])
			if err != nil {
				return nil, nil, fmt.Errorf("%s traced pass: %w", w.name, err)
			}
			var why []string
			for _, id := range tp.bad {
				why = append(why, id+": traced pass failed or output differs from its golden digest")
			}
			count(res.Workloads[w.name], len(w.ids), len(tp.bad), why)
			for metric, v := range tp.metrics {
				add(w.name, metric, v)
			}
			add(w.name, "traced_wall_s", tp.wallS)
			journals[w.name] = tp.journal
		}
	}

	var probes map[string]float64
	if cfg.trace {
		pj := tracespan.NewJournal(0, nil)
		if probes, err = runProbes(pj); err != nil {
			return nil, nil, err
		}
		for _, j := range journals {
			for _, s := range pj.Snapshot() {
				j.Record(s)
			}
		}
	}
	for _, w := range ws {
		wr, s := res.Workloads[w.name], samples[w.name]
		for _, d := range endToEndMetrics {
			xs := s[d.name]
			if d.name == "setup_s" {
				xs = setup
			}
			wr.Metrics[d.name] = summarize(d.unit, xs)
		}
		if !cfg.trace {
			continue
		}
		wr.Layers = map[string]summary{}
		for _, d := range perLayerMetrics() {
			xs := s[d.name]
			switch {
			case d.name == "obs.trace_overhead_frac":
				xs = []float64{median(sortedCopy(s["traced_wall_s"]))/wr.Metrics["wall_s"].Median - 1}
			case probes[d.name] != 0:
				xs = []float64{probes[d.name]}
			case len(xs) == 0:
				// The layer did not run in this workload.
				xs = []float64{0}
			}
			wr.Layers[d.name] = summarize(d.unit, xs)
		}
	}
	return res, journals, nil
}

// printResult prints every metric with its unit, per workload, then the
// one-line JSON summary. Names carry a "<workload>/" prefix when more
// than one workload ran.
func printResult(w io.Writer, res *result, ws []workloadSpec, trace bool) {
	fmt.Fprintf(w, "machine %+v commit %s dirty=%v seed %d rounds %d\n",
		res.Machine, res.Commit, res.Dirty, res.Seed, res.Rounds)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, wl := range ws {
		wr := res.Workloads[wl.name]
		fmt.Fprintf(w, "%s: %d experiments attempted, %d failed; experiments %v\n", wl.name, wr.Attempted, wr.Failed, wr.Args)
		for _, d := range endToEndMetrics {
			s := wr.Metrics[d.name]
			fmt.Fprintf(w, "  %-32s median %10.4f %-9s q1 %.4f q3 %.4f min %.4f max %.4f n=%d\n",
				d.name, s.Median, s.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
			if !trace {
				metrics[metricKey(wl.name, d.name, len(ws))] = value{s.Median, s.Unit}
			}
		}
		if !trace {
			continue
		}
		for _, d := range perLayerMetrics() {
			s := wr.Layers[d.name]
			fmt.Fprintf(w, "  %-32s median %10.4f %-9s n=%d\n", d.name, s.Median, s.Unit, s.N)
			metrics[metricKey(wl.name, d.name, len(ws))] = value{s.Median, s.Unit}
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func metricKey(workload, metric string, workloads int) string {
	if workloads == 1 {
		return metric
	}
	return workload + "/" + metric
}

func thisMachine() machine {
	return machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// vcsState is the commit and dirty flag the go command stamped into this
// binary; a checkout outside version control reports "unknown".
func vcsState() (commit string, dirty bool) {
	commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	return commit, dirty
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("%s: result schema v%d, this build reads v%d", path, r.SchemaVersion, schemaVersion)
	}
	return &r, nil
}

func runCompare(parentPath, changePath string, w io.Writer) error {
	parent, err := readResult(parentPath)
	if err != nil {
		return err
	}
	change, err := readResult(changePath)
	if err != nil {
		return err
	}
	spec, err := loadEndToEnd("BENCHMARK.json")
	if err != nil {
		return err
	}
	return compareResults(parent, change, spec, w)
}

// updateGolden runs every workload once, plus the set-up probe, and
// writes each experiment's block digest to path.
func updateGolden(cfg config, path string) error {
	tmp, err := tmpDir()
	if err != nil {
		return err
	}
	digests := func(args, ids []string) (map[string]string, error) {
		r, err := runChild(experimentsBin, args, tmp)
		if err != nil {
			return nil, err
		}
		if r.err != nil {
			return nil, r.err
		}
		all := digestBlocks(r.out)
		out := map[string]string{}
		for _, id := range ids {
			d, ok := all[id]
			if !ok {
				return nil, fmt.Errorf("%v: no output block for %s", args, id)
			}
			out[id] = d
		}
		return out, nil
	}
	g := golden{}
	if g[setupGolden], err = digests(setupArgs, []string{"table1"}); err != nil {
		return err
	}
	for _, w := range workloads() {
		if g[w.name], err = digests(w.args(cfg.workers), w.ids); err != nil {
			return err
		}
	}
	return writeJSON(path, g)
}

// experimentsBin is the CLI bench/run.sh builds.
var experimentsBin = filepath.Join(workDir, "experiments")

// tmpDir creates the parent of the children's private TMPDIRs. It is
// absolute because the children inherit it as an environment variable.
func tmpDir() (string, error) {
	tmp, err := filepath.Abs(filepath.Join(workDir, "tmp"))
	if err != nil {
		return "", err
	}
	return tmp, os.MkdirAll(tmp, 0o755)
}
