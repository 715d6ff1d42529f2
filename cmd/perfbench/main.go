// Command perfbench regenerates BENCH_perf.json: the simulation-engine
// performance baseline tracked across PRs. It measures two things:
//
//  1. Kernel throughput (accesses/sec) for the main simulation kernels —
//     the direct-mapped baseline, 8-way set-associative, the 512-way
//     fully-associative cache on its O(1) hash-indexed lookup
//     (`fa-hash`), the hash-indexed wide-set FIFO and Random replays
//     (`512way-full-fast`, `random-batch`), the one-pass multi-geometry
//     stack-distance profiler (`stackdist`, five LRU shapes per access)
//     and its FIFO queue-distance twin (`fifo-queue`), the B-Cache at
//     MF=8/BAS=8 on its SWAR path, and the scalar reference
//     implementation the SWAR kernel is differentially tested against.
//     The retired linear-scan engines survive as differential oracles
//     (see the bcachelint oraclepair manifest), not as tracked rows.
//  2. Wall-clock for the full registered experiment suite — what
//     `cmd/experiments` runs — plus the shared trace cache's hit/miss
//     counters, resident peak, and spill-tier size for that pass.
//
// With -compare it instead replays only the kernels and checks them
// against a committed baseline, exiting non-zero if any kernel's
// accesses/sec regressed more than 15% — the `make bench-compare` gate.
//
// Usage:
//
//	perfbench [-n instructions] [-kernel-accesses n] [-o BENCH_perf.json]
//	perfbench -compare BENCH_perf.json [-kernel-accesses n]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/experiment"
	"bcache/internal/rng"
	"bcache/internal/stackdist"
)

const (
	sizeBytes = 16 * 1024
	lineBytes = 32
	// schemaVersion identifies the BENCH_perf.json document layout.
	schemaVersion = 1
	// regressLimit is the tolerated fractional accesses/sec loss per
	// kernel in -compare mode.
	regressLimit = 0.15
)

// KernelResult is one kernel's raw replay throughput.
type KernelResult struct {
	Config      string  `json:"config"`
	Accesses    uint64  `json:"accesses"`
	Seconds     float64 `json:"seconds"`
	AccessesSec float64 `json:"accessesPerSec"`
}

// SuiteResult is one full-suite pass.
type SuiteResult struct {
	Instructions uint64  `json:"instructions"`
	Experiments  int     `json:"experiments"`
	Rows         int     `json:"rows"`
	Seconds      float64 `json:"wallClockSeconds"`
	TraceHits    uint64  `json:"traceCacheHits"`
	TraceMisses  uint64  `json:"traceCacheMisses"`
	// TraceBytes is the resident high-water mark of the in-memory trace
	// cache across the pass.
	TraceBytes int64 `json:"traceCacheBytes"`
	// TraceSpillBytes is what the spill tier held on disk when the pass
	// finished.
	TraceSpillBytes int64 `json:"traceCacheSpillBytes"`
}

// Baseline is the BENCH_perf.json document.
type Baseline struct {
	SchemaVersion int            `json:"schemaVersion"`
	Kernels       []KernelResult `json:"kernels"`
	Suite         SuiteResult    `json:"suite"`
}

// cacheKernel adapts a cache model to the access-closure interface.
func cacheKernel(build func() (cache.Cache, error)) func() (func(addr.Addr), error) {
	return func() (func(addr.Addr), error) {
		c, err := build()
		if err != nil {
			return nil, err
		}
		return func(a addr.Addr) { c.Access(a, false) }, nil
	}
}

// stackdistKernel profiles the five 16kB LRU geometries a figure-spec
// scheduling unit answers in one pass (ways 1/2/4/8/32).
func stackdistKernel() (func(addr.Addr), error) {
	frames := sizeBytes / lineBytes
	var geoms []stackdist.Geom
	for _, w := range []int{1, 2, 4, 8, 32} {
		geoms = append(geoms, stackdist.Geom{Sets: frames / w, Ways: w})
	}
	p, err := stackdist.NewProfile(lineBytes, geoms)
	if err != nil {
		return nil, err
	}
	return p.Access, nil
}

// fifoQueueKernel profiles the same five geometries under FIFO
// replacement in one queue-distance pass.
func fifoQueueKernel() (func(addr.Addr), error) {
	frames := sizeBytes / lineBytes
	var geoms []stackdist.Geom
	for _, w := range []int{1, 2, 4, 8, 32} {
		geoms = append(geoms, stackdist.Geom{Sets: frames / w, Ways: w})
	}
	p, err := stackdist.NewFIFOProfile(lineBytes, geoms)
	if err != nil {
		return nil, err
	}
	return p.Access, nil
}

var configs = []struct {
	label string
	build func() (func(addr.Addr), error)
}{
	{"dm", cacheKernel(func() (cache.Cache, error) { return cache.NewDirectMapped(sizeBytes, lineBytes) })},
	{"8way", cacheKernel(func() (cache.Cache, error) {
		return cache.NewSetAssoc(sizeBytes, lineBytes, 8, cache.LRU, rng.New(1))
	})},
	// The fully-associative cache on the O(1) hash-indexed lookup (the
	// default build). The historical `512way-full` linear-scan row is
	// retired from the baseline — at ~574 k accesses/s it sits far below
	// the 5 M/s floor by design; the scan engine survives as the
	// differential oracle behind `NewSetAssocScan` (oraclepair
	// fa-hash-vs-scan), not as a tracked kernel.
	{"fa-hash", cacheKernel(func() (cache.Cache, error) {
		return cache.NewFullyAssoc(sizeBytes, lineBytes, cache.LRU, rng.New(1))
	})},
	// 512-way FIFO on the hash-indexed wide-set fast path — the engine
	// that replaced the scan for non-LRU high-associativity replays.
	{"512way-full-fast", cacheKernel(func() (cache.Cache, error) {
		return cache.NewSetAssoc(sizeBytes, lineBytes, sizeBytes/lineBytes, cache.FIFO, rng.New(1))
	})},
	// 512-way Random on the same indexed path: victim choice is a single
	// draw, hit lookup is the hash index.
	{"random-batch", cacheKernel(func() (cache.Cache, error) {
		return cache.NewSetAssoc(sizeBytes, lineBytes, sizeBytes/lineBytes, cache.Random, rng.New(1))
	})},
	{"stackdist", stackdistKernel},
	{"fifo-queue", fifoQueueKernel},
	{"bcache-mf8-bas8", cacheKernel(func() (cache.Cache, error) {
		return core.New(core.Config{SizeBytes: sizeBytes, LineBytes: lineBytes, MF: 8, BAS: 8, Policy: cache.LRU})
	})},
	{"bcache-mf8-bas8-ref", cacheKernel(func() (cache.Cache, error) {
		return core.NewReference(core.Config{SizeBytes: sizeBytes, LineBytes: lineBytes, MF: 8, BAS: 8, Policy: cache.LRU})
	})},
}

func main() {
	var (
		n       = flag.Uint64("n", 2_000_000, "instructions per experiment in the suite pass")
		kn      = flag.Uint64("kernel-accesses", 50_000_000, "accesses per kernel throughput run")
		outPath = flag.String("o", "BENCH_perf.json", "output file")
		cmpPath = flag.String("compare", "", "compare kernel throughput against this baseline instead of writing one")
	)
	flag.Parse()

	doc := Baseline{SchemaVersion: schemaVersion}
	for _, cfg := range configs {
		r, err := kernelRun(cfg.label, cfg.build, *kn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.label, err)
			os.Exit(1)
		}
		doc.Kernels = append(doc.Kernels, r)
		fmt.Printf("%-20s %12.0f accesses/s\n", cfg.label, r.AccessesSec)
	}

	if *cmpPath != "" {
		if err := compareKernels(*cmpPath, doc.Kernels); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	suite, err := suiteRun(*n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	doc.Suite = suite
	fmt.Printf("suite: %d experiments, %d rows in %.2fs (trace cache: %d hits / %d misses, peak %d MB resident, %d MB spilled)\n",
		suite.Experiments, suite.Rows, suite.Seconds, suite.TraceHits, suite.TraceMisses,
		suite.TraceBytes>>20, suite.TraceSpillBytes>>20)

	f, err := os.Create(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *outPath)
}

// compareKernels checks fresh kernel results against the committed
// baseline document: any kernel more than regressLimit slower fails.
// Kernels present on only one side (renamed, newly added) are reported
// but never fail the gate.
func compareKernels(path string, fresh []KernelResult) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	byLabel := make(map[string]KernelResult, len(base.Kernels))
	for _, k := range base.Kernels {
		byLabel[k.Config] = k
	}
	regressed := 0
	for _, k := range fresh {
		b, ok := byLabel[k.Config]
		if !ok {
			fmt.Printf("%-20s %12.0f accesses/s  (no baseline)\n", k.Config, k.AccessesSec)
			continue
		}
		delta := k.AccessesSec/b.AccessesSec - 1
		verdict := "ok"
		if delta < -regressLimit {
			verdict = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-20s %12.0f vs %12.0f accesses/s  %+6.1f%%  %s\n",
			k.Config, k.AccessesSec, b.AccessesSec, 100*delta, verdict)
	}
	if regressed > 0 {
		return fmt.Errorf("%d kernel(s) regressed more than %.0f%% vs %s", regressed, 100*regressLimit, path)
	}
	fmt.Printf("no kernel regressed more than %.0f%% vs %s\n", 100*regressLimit, path)
	return nil
}

// kernelRun replays a synthetic conflict-heavy stream and times it.
func kernelRun(label string, build func() (func(addr.Addr), error), n uint64) (KernelResult, error) {
	access, err := build()
	if err != nil {
		return KernelResult{}, err
	}
	src := rng.New(5)
	addrs := make([]addr.Addr, 8192)
	for i := range addrs {
		addrs[i] = addr.Addr(src.Intn(1 << 22))
	}
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		access(addrs[i&8191])
	}
	secs := time.Since(start).Seconds()
	return KernelResult{
		Config:      label,
		Accesses:    n,
		Seconds:     secs,
		AccessesSec: float64(n) / secs,
	}, nil
}

// suiteRun executes every registered experiment once, like
// `cmd/experiments` with no arguments, from a cold trace cache.
func suiteRun(n uint64) (SuiteResult, error) {
	opts := experiment.DefaultOpts()
	opts.Instructions = n
	experiment.ResetTraceCache()
	experiment.ResetTimedCache()
	experiment.ResetUnitMemo()
	defer experiment.CleanupTraceSpill()
	rows := 0
	exps := experiment.All()
	start := time.Now()
	for _, e := range exps {
		tables, err := e.Run(opts)
		if err != nil {
			return SuiteResult{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			rows += len(t.Rows)
		}
	}
	secs := time.Since(start).Seconds()
	tc := experiment.TraceCacheStats()
	return SuiteResult{
		Instructions:    n,
		Experiments:     len(exps),
		Rows:            rows,
		Seconds:         secs,
		TraceHits:       tc.Hits,
		TraceMisses:     tc.Misses,
		TraceBytes:      tc.PeakBytes,
		TraceSpillBytes: tc.SpillBytes,
	}, nil
}
