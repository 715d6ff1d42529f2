package main

import (
	"fmt"
	"strconv"
	"strings"

	"bcache/internal/experiment"
)

// workloadSpec is one closed batch job: a single experiments process running
// a fixed list of experiments on the 26 synthetic SPEC2K profiles at their
// fixed seeds. Instruction counts are scaled down from the paper-scale
// campaign so that several runs of every workload fit in one measured
// run; BENCHMARK.json records why each workload exists.
//
// The CLI takes no workload seed, so the benchmark seed cannot vary the
// program's inputs; it is only recorded. Nor does it permute the
// experiment order: the output does not depend on the order, but the
// cost does (which experiment builds each shared trace, and how many
// traces are resident at the peak), enough to swamp the bounds.
type workloadSpec struct {
	name string
	// ids are the experiments, in the order they run.
	ids []string
	// n is the instruction count per simulation (-n).
	n uint64
	// traceBytes is the trace-cache budget (-trace-cache-bytes); 0 keeps
	// the CLI default.
	traceBytes int64
}

// spillBudget scales the default 232 MiB trace-cache budget by the same
// factor as missrate-spill's streams (5 M → 0.5 M instructions), so the
// long-stream workload keeps overflowing the resident tier and spilling.
const spillBudget = 24 << 20

func workloads() []workloadSpec {
	var all []string
	for _, e := range experiment.All() {
		all = append(all, e.ID)
	}
	return []workloadSpec{
		{name: "suite", ids: all, n: 100_000},
		{name: "missrate-spill", ids: []string{"fig4", "fig5"}, n: 500_000, traceBytes: spillBudget},
		{name: "timed", ids: []string{"fig8", "fig9", "table7", "xprefetch", "xwindow"}, n: 300_000},
		{name: "sweep", ids: []string{"fig3", "table5", "table6", "fault", "x3c", "xl2", "xdrowsy", "xrecolor", "xvipt"}, n: 400_000},
	}
}

// selectWorkloads resolves the -workload flag: one name, or "all".
func selectWorkloads(name string) ([]workloadSpec, error) {
	all := workloads()
	if name == "all" {
		return all, nil
	}
	for _, w := range all {
		if w.name == name {
			return []workloadSpec{w}, nil
		}
	}
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// args is the experiments command line for one run of w.
func (w workloadSpec) args(workers int) []string {
	a := []string{
		"-run", strings.Join(w.ids, ","),
		"-n", strconv.FormatUint(w.n, 10),
		"-workers", strconv.Itoa(workers),
		"-format", "csv",
	}
	if w.traceBytes != 0 {
		a = append(a, "-trace-cache-bytes", strconv.FormatInt(w.traceBytes, 10))
	}
	return a
}

// opts is the in-process equivalent of args for the traced pass.
func (w workloadSpec) opts(workers int) experiment.Opts {
	o := experiment.DefaultOpts()
	o.Instructions = w.n
	o.Workers = workers
	o.TraceBytes = w.traceBytes
	return o
}

// setupArgs is the set-up probe: process start, package init and the
// experiment registry, the telemetry hub, one analytic table, and exit.
var setupArgs = []string{"-run", "table1", "-format", "csv"}
