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
	"encoding/json"
	"fmt"
	"sort"

	"bcache/internal/workload"
)

// Experiment reproduces one paper artifact.
//
// Every experiment declares its simulations once, as a keyed unit list
// (Units), and reduces their results to tables (Render); Run is derived
// from the two. Because every unit carries checkpoint keys, one memo,
// the checkpoint (-checkpoint, -resume) and PlanCampaign's leases to
// worker subprocesses cover every experiment, and the in-process and
// distributed runs cannot disagree. The analytic tables have no units.
type Experiment struct {
	// ID is the short name used by cmd/experiments -run and bench_test.go.
	ID string
	// Title names the paper artifact.
	Title string
	// Units declares the experiment's simulations at the given scale
	// (nil for the analytic tables).
	Units func(Opts) []unit
	// Render reduces the units' results to tables. It fails when a
	// result it needs is missing, unless it can mark a partial table.
	Render func(Opts, results) ([]*Table, error)
}

// Run validates opts, runs every unit of the experiment in one
// scheduler call, and renders the results. When units fail or a stop
// request cuts the run short, Run still returns the tables Render can
// build from the completed units (they carry a [partial] note) together
// with the error; otherwise it returns only the error.
func (e Experiment) Run(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var us []unit
	if e.Units != nil {
		us = e.Units(opts)
	}
	res, err := runUnits(opts, us)
	tables, rerr := e.Render(opts, res)
	if rerr != nil {
		if err == nil {
			err = rerr
		}
		return nil, err
	}
	return tables, err
}

// A unit is one scheduled simulation. It commits one result per
// checkpoint key, and each key names everything its result depends on,
// so a result is shared by key across experiments, restored from a
// checkpoint, or leased to a worker subprocess under that key.
type unit struct {
	keys []string
	// opts and prof name the trace the unit replays: consecutive units
	// on one trace form a scheduler group.
	opts Opts
	prof *workload.Profile
	// label names the unit in telemetry spans and the slowest-unit
	// digest; bench/fold.go parses it.
	label string
	// exec simulates the unit, returning one result per key; decode
	// parses one checkpointed result.
	exec   func() ([]any, error)
	decode func(json.RawMessage) (any, error)
	// replays marks a miss-rate unit: its simulated accesses count
	// toward the experiment.accesses metric.
	replays bool
}

// newUnit builds a unit whose results are all of type R.
func newUnit[R any](opts Opts, p *workload.Profile, label string, keys []string,
	exec func() ([]R, error)) unit {
	return unit{
		keys: keys, opts: opts, prof: p, label: label,
		exec: func() ([]any, error) {
			rs, err := exec()
			if err != nil {
				return nil, err
			}
			out := make([]any, len(rs))
			for i, r := range rs {
				out[i] = r
			}
			return out, nil
		},
		decode: func(raw json.RawMessage) (any, error) {
			var r R
			err := json.Unmarshal(raw, &r)
			return r, err
		},
	}
}

// sameTrace reports whether u and v replay the same trace.
func (u unit) sameTrace(v unit) bool {
	return recordTraceKey(u.opts, u.prof) == recordTraceKey(v.opts, v.prof)
}

// retire ends the residency of the record trace of u's group.
func (u unit) retire() { retireRecords(u.opts, u.prof) }

// results holds the committed result of every unit key of a run.
type results map[string]any

// result returns the result stored under key, or an error when the run
// did not complete the unit that commits it.
func result[R any](res results, key string) (R, error) {
	v, ok := res[key]
	if !ok {
		var zero R
		return zero, fmt.Errorf("experiment: unit %s did not complete", key)
	}
	return v.(R), nil
}

// A grid is the unit list of a (profile × configuration) experiment:
// one unit per pair, grouped by profile so a profile's configurations
// share its trace. Labels read "<id>/<profile>/<config>".
type grid[R any] struct {
	id       string
	opts     Opts
	profiles []*workload.Profile
	configs  []string
	run      func(p *workload.Profile, c int) (R, error)
}

// key is the checkpoint key of p's result on config c. id names the
// experiment, or a family of experiments that share results ("timed").
func (g grid[R]) key(p *workload.Profile, c int) string {
	return fmt.Sprintf("%s|n=%d|size=%d|line=%d|prof=%s|cfg=%s",
		g.id, g.opts.Instructions, g.opts.L1Size, g.opts.LineBytes, p.Name, g.configs[c])
}

func (g grid[R]) units() []unit {
	us := make([]unit, 0, len(g.profiles)*len(g.configs))
	for _, p := range g.profiles {
		for c, cfg := range g.configs {
			us = append(us, newUnit(g.opts, p, fmt.Sprintf("%s/%s/%s", g.id, p.Name, cfg),
				[]string{g.key(p, c)}, func() ([]R, error) {
					r, err := g.run(p, c)
					if err != nil {
						return nil, fmt.Errorf("%s/%s: %w", p.Name, cfg, err)
					}
					return []R{r}, nil
				}))
		}
	}
	return us
}

// gridExperiment builds a grid experiment: its units are build(opts)'s,
// and render gets their results indexed [profile][config].
func gridExperiment[R any](id, title string, build func(Opts) grid[R],
	render func(Opts, grid[R], [][]R) []*Table) Experiment {
	return Experiment{ID: id, Title: title,
		Units: func(opts Opts) []unit { return build(opts).units() },
		Render: func(opts Opts, res results) ([]*Table, error) {
			g := build(opts)
			runs, err := g.collect(res)
			if err != nil {
				return nil, err
			}
			return render(opts, g, runs), nil
		}}
}

// collect returns the grid's results indexed [profile][config], or an
// error if the run left any of them out.
func (g grid[R]) collect(res results) ([][]R, error) {
	out := make([][]R, len(g.profiles))
	for pi, p := range g.profiles {
		out[pi] = make([]R, len(g.configs))
		for c := range g.configs {
			r, err := result[R](res, g.key(p, c))
			if err != nil {
				return nil, err
			}
			out[pi][c] = r
		}
	}
	return out, nil
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
