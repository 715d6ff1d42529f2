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

// Run is RunAll over e alone.
func (e Experiment) Run(opts Opts) ([]*Table, error) {
	out := RunAll(opts, []Experiment{e})[0]
	return out.Tables, out.Err
}

// Outcome is one experiment's share of a RunAll campaign.
type Outcome struct {
	Tables []*Table
	Err    error
}

// RunAll validates opts, runs the units of every experiment in exps as
// one trace-major campaign (campaignUnits) in one scheduler call, and
// renders each experiment from the campaign's results, in the order
// given. An experiment whose units did not all complete — a unit
// failed, or a stop request cut the campaign short — gets the
// campaign's error, alongside the tables Render can still build (they
// carry a [partial] note) or none when it cannot.
func RunAll(opts Opts, exps []Experiment) []Outcome {
	out := make([]Outcome, len(exps))
	if err := opts.validate(); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	res, err := runUnits(opts, campaignUnits(opts, exps))
	for i, e := range exps {
		var eerr error
		if err != nil && e.Units != nil && !res.complete(e.Units(opts)) {
			eerr = err
		}
		tables, rerr := e.Render(opts, res)
		if rerr != nil {
			if eerr == nil {
				eerr = rerr
			}
			tables = nil
		}
		out[i] = Outcome{Tables: tables, Err: eerr}
	}
	return out
}

// complete reports whether res holds the result of every key of us.
func (res results) complete(us []unit) bool {
	for _, u := range us {
		for _, k := range u.keys {
			if _, ok := res[k]; !ok {
				return false
			}
		}
	}
	return true
}

// campaignUnits is the unit list of a campaign over exps, shared by
// RunAll and PlanCampaign. It concatenates the experiments' unit lists,
// owning each unit by the first experiment that declares it, and drops
// a unit whose every key an earlier unit commits (fig9 after fig8). A
// stack-distance unit can overlap an earlier one partly (xline's
// 4/8-way profile and fig4's 2/4/8/32-way profile of the same trace);
// it is kept whole. The list is then ordered trace-major: units are
// stable-sorted by the first appearance of their trace, so every
// consumer of a trace runs in its one scheduler group, in declared
// order, and the trace is built once and dropped when the group ends.
func campaignUnits(opts Opts, exps []Experiment) []unit {
	var traces []traceKey // in order of first appearance
	byTrace := map[traceKey][]unit{}
	planned := map[string]bool{}
	n := 0
	for _, e := range exps {
		if e.Units == nil {
			continue
		}
		for _, u := range e.Units(opts) {
			dup := true
			for _, k := range u.keys {
				dup = dup && planned[k]
				planned[k] = true
			}
			if dup {
				continue
			}
			u.owner = e.ID
			k := u.trace()
			if _, ok := byTrace[k]; !ok {
				traces = append(traces, k)
			}
			byTrace[k] = append(byTrace[k], u)
			n++
		}
	}
	us := make([]unit, 0, n)
	for _, k := range traces {
		us = append(us, byTrace[k]...)
	}
	return us
}

// A unit is one scheduled simulation. It commits one result per
// checkpoint key, and each key names everything its result depends on,
// so a result is shared by key across experiments, restored from a
// checkpoint, or leased to a worker subprocess under that key.
type unit struct {
	keys []string
	// opts and prof name the trace the unit replays: consecutive units
	// on one trace form a scheduler group, which runs as one pass.
	opts Opts
	prof *workload.Profile
	// label names the unit in telemetry spans and the slowest-unit
	// digest; bench/fold.go parses it.
	label string
	// owner is the experiment whose per-experiment telemetry the unit
	// counts toward: the first in a campaign to declare it.
	owner string
	// reads is the stream the unit's engine reads from each chunk.
	reads stream
	// start builds the unit's engine for one pass, whose results are
	// one per key; decode parses one checkpointed result.
	start  func() (engine[[]any], error)
	decode func(json.RawMessage) (any, error)
	// replays marks a miss-rate unit: its simulated accesses count
	// toward the experiment.accesses metric.
	replays bool
}

// An engine is one unit's consumer in a pass: feed takes the stream the
// unit reads, chunk by chunk in trace order, and results returns what
// it computed once the last chunk is in.
type engine[R any] struct {
	feed    func(*chunk)
	results func() (R, error)
}

// newUnit builds a unit whose results are all of type R.
func newUnit[R any](opts Opts, p *workload.Profile, label string, keys []string, reads stream,
	start func() (engine[[]R], error)) unit {
	return unit{
		keys: keys, opts: opts, prof: p, label: label, reads: reads,
		start: func() (engine[[]any], error) {
			e, err := start()
			if err != nil {
				return engine[[]any]{}, err
			}
			return engine[[]any]{feed: e.feed, results: func() ([]any, error) {
				rs, err := e.results()
				out := make([]any, len(rs))
				for i, r := range rs {
					out[i] = r
				}
				return out, err
			}}, nil
		},
		decode: func(raw json.RawMessage) (any, error) {
			var r R
			err := json.Unmarshal(raw, &r)
			return r, err
		},
	}
}

// trace is u's trace: its scheduler group.
func (u unit) trace() traceKey { return traceOf(u.opts, u.prof) }

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
// share its trace's pass. Labels read "<id>/<profile>/<config>".
type grid[R any] struct {
	id       string
	opts     Opts
	profiles []*workload.Profile
	configs  []string
	// run builds the engine of p's run on config c, which reads the
	// grid's stream.
	run   func(p *workload.Profile, c int) (engine[R], error)
	reads stream
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
			wrap := func(err error) error { return fmt.Errorf("%s/%s: %w", p.Name, cfg, err) }
			us = append(us, newUnit(g.opts, p, fmt.Sprintf("%s/%s/%s", g.id, p.Name, cfg),
				[]string{g.key(p, c)}, g.reads, func() (engine[[]R], error) {
					e, err := g.run(p, c)
					if err != nil {
						return engine[[]R]{}, wrap(err)
					}
					return engine[[]R]{feed: e.feed, results: func() ([]R, error) {
						r, err := e.results()
						if err != nil {
							return nil, wrap(err)
						}
						return []R{r}, nil
					}}, nil
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
