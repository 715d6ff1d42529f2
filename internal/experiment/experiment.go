// Package experiment reproduces every table and figure of the paper's
// evaluation: miss-rate reductions (Figures 4, 5, 12), the MF sweep
// (Figure 3), IPC (Figure 8), energy (Figure 9), decoder timing
// (Table 1), storage (Table 2), energy per access (Table 3), the MF/BAS
// design-space (Tables 5 and 6), and the set-balance analysis (Table 7).
//
// Each experiment is registered under the paper artifact's ID and
// produces one or more text tables; cmd/experiments is the CLI driver and
// EXPERIMENTS.md records paper-vs-measured values.
package experiment

import (
	"fmt"
	"sort"
)

// Experiment reproduces one paper artifact.
//
// The miss-rate experiments (fig4, fig5, fig12, table5, table6, xline)
// declare their work once, as sweeps, and are built by sweepExperiment:
// Run executes exactly those sweeps and renders the results, and
// PlanCampaign leases the same sweeps' jobs to worker subprocesses, so
// the in-process and distributed runs cannot disagree. Every other
// experiment has only a Run and executes in-process.
type Experiment struct {
	// ID is the short name used by cmd/experiments -run and bench_test.go.
	ID string
	// Title names the paper artifact.
	Title string
	// Run executes the experiment at the given scale.
	Run func(Opts) ([]*Table, error)
	// sweeps, when non-nil, declares the experiment's miss-rate sweeps.
	sweeps func(Opts) []sweep
}

// sweepExperiment builds a miss-rate experiment from its declared sweeps
// and a render step. Run validates opts, runs the sweeps in order, and
// stops at the first failing one. With partial set, a failure that
// still completed some profiles renders them (the tables carry a
// [partial] note) and returns the error alongside; otherwise a failure
// returns no tables. Sweeps not run are nil in the results render gets.
func sweepExperiment(id, title string, sweeps func(Opts) []sweep,
	render func([]sweep, []missResults) []*Table, partial bool) Experiment {

	run := func(opts Opts) ([]*Table, error) {
		if err := opts.validate(); err != nil {
			return nil, err
		}
		sws := sweeps(opts)
		results := make([]missResults, len(sws))
		for i, sw := range sws {
			res, err := missRates(sw)
			if err != nil {
				if partial && len(res) > 0 {
					results[i] = res
					return render(sws, results), err
				}
				return nil, err
			}
			results[i] = res
		}
		return render(sws, results), nil
	}
	return Experiment{ID: id, Title: title, Run: run, sweeps: sweeps}
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiment: duplicate id %q", e.ID))
	}
	registry[e.ID] = e
}

// All returns the registered experiments sorted by ID (figures first,
// then tables, each numerically).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

// lessID orders "fig3" < "fig12" and figures before tables.
func lessID(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitID(id string) (prefix string, n int) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	prefix = id[:i]
	for _, c := range id[i:] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return prefix, n
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for k := range registry {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("experiment: unknown id %q (have %v)", id, ids)
	}
	return e, nil
}
