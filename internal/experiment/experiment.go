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
	"slices"
	"sort"

	"bcache/internal/workload"
)

// Experiment reproduces one paper artifact.
//
// Every experiment declares its simulations once, as a keyed unit list
// (Units), and reduces their results to tables (Render); Run is derived
// from the two. Because every unit carries checkpoint keys, one
// campaign (RunAll), the checkpoint (-checkpoint, -resume) and
// PlanCampaign's leases to worker subprocesses cover every experiment,
// and the in-process and distributed runs cannot disagree. The
// analytic tables have no units.
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

// RunAll plans the units of every experiment in exps as one
// trace-major campaign (planUnits), runs them in one scheduler call,
// and renders each experiment from the campaign's results, in the order
// given. An experiment whose units did not all complete — a unit
// failed, or a stop request cut the campaign short — gets the
// campaign's error, alongside the tables Render can still build (they
// carry a [partial] note) or none when it cannot.
func RunAll(opts Opts, exps []Experiment) []Outcome {
	out := make([]Outcome, len(exps))
	us, err := planUnits(opts, exps)
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	res, err := runUnits(opts, us)
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
// RunAll and PlanCampaign. It simulates each (configuration, stream)
// once:
//
//   - every stack-distance unit of one (trace, side, line) merges into
//     one profile answering all their keys (mergeProfiles), whichever
//     experiments and L1 sizes asked;
//   - a unit is kept only if no other kept unit answers every one of
//     its keys (cover): fig9's units yield to fig8's, fig4's MF8
//     replays to the timed MF8 units, which answer the same L1 keys.
//
// A unit that overlaps a kept one only partly is kept whole, and the
// keys they share are committed twice (checkCommits compares them).
// Each unit is owned by the experiment that declared it. The list is
// then ordered trace-major: units are stable-sorted by the first
// appearance of their trace, so every consumer of a trace runs in its
// one scheduler group, in declared order, and the trace is built once
// and dropped when the group ends.
func campaignUnits(opts Opts, exps []Experiment) []unit {
	var us []unit
	for _, e := range exps {
		if e.Units == nil {
			continue
		}
		for _, u := range e.Units(opts) {
			u.owner = e.ID
			us = append(us, u)
		}
	}
	var traces []traceKey // in order of first appearance
	byTrace := map[traceKey][]unit{}
	for _, u := range cover(mergeProfiles(us)) {
		k := u.trace()
		if _, ok := byTrace[k]; !ok {
			traces = append(traces, k)
		}
		byTrace[k] = append(byTrace[k], u)
	}
	us = us[:0]
	for _, k := range traces {
		us = append(us, byTrace[k]...)
	}
	return us
}

// planUnits is campaignUnits behind the checks that need no trace:
// opts.validate, and that every spec a unit declares builds at the
// unit's L1 and line size. Each distinct (spec, size, line) is built
// once, so a spec the cache cannot hold — 4-way at a 64-byte L1 of two
// frames — fails the campaign with one error before any unit starts,
// instead of failing every unit that runs it.
func planUnits(opts Opts, exps []Experiment) ([]unit, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	us := campaignUnits(opts, exps)
	type build struct {
		key        string
		size, line int
	}
	built := map[build]bool{}
	for _, u := range us {
		for _, sp := range u.specs {
			b := build{sp.Key, u.opts.L1Size, u.opts.LineBytes}
			if built[b] {
				continue
			}
			built[b] = true
			if _, err := sp.New(b.size, b.line); err != nil {
				return nil, fmt.Errorf("experiment: spec %s of %s does not fit a %d-byte L1 of %d-byte lines: %w",
					sp.Name, u.owner, b.size, b.line, err)
			}
		}
	}
	return us, nil
}

// mergeProfiles replaces the stack-distance units of us, in place, on
// each (trace, side, line) with one unit, in place of the first of
// them, that answers all their keys from one profile: one stackdist.Profile serves
// every L1 size at one set count, so fig4's 16 kB, fig12's 8 and 32 kB
// and xrelated's profiles of one stream run as one.
func mergeProfiles(us []unit) []unit {
	type stream struct {
		trace traceKey
		side  side
		line  int
	}
	at := map[stream]int{} // the stream's merged unit in out
	out := us[:0]
	for _, u := range us {
		if u.lru == nil {
			out = append(out, u)
			continue
		}
		s := stream{u.trace(), u.lru.side, u.lru.line}
		i, ok := at[s]
		if !ok {
			at[s] = len(out)
			out = append(out, u)
			continue
		}
		m := out[i]
		keys, sh := slices.Clone(m.keys), *m.lru
		sh.geoms = slices.Clone(sh.geoms)
		for x, k := range u.keys {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
				sh.geoms = append(sh.geoms, u.lru.geoms[x])
			}
		}
		out[i] = profileUnit(m.opts, m.prof, m.label, keys, sh)
		out[i].owner = m.owner
	}
	return out
}

// cover filters us, in place, to the units no other kept unit answers
// every key of, in us's order. Units are weighed widest first, ties broken by
// label and then keys, so which units stay does not depend on the order
// experiments are declared in; of identical units the first declared
// stays.
func cover(us []unit) []unit {
	order := make([]int, len(us))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ua, ub := us[order[a]], us[order[b]]
		if len(ua.keys) != len(ub.keys) {
			return len(ua.keys) > len(ub.keys)
		}
		if ua.label != ub.label {
			return ua.label < ub.label
		}
		return slices.Compare(ua.keys, ub.keys) < 0
	})
	by := map[string][]int{} // key -> the kept units answering it
	keep := make([]bool, len(us))
	for _, i := range order {
		keys := us[i].keys
		answers := func(j int) bool {
			for _, k := range keys {
				if !slices.Contains(by[k], j) {
					return false
				}
			}
			return true
		}
		if slices.ContainsFunc(by[keys[0]], answers) {
			continue
		}
		keep[i] = true
		for _, k := range keys {
			by[k] = append(by[k], i)
		}
	}
	out := us[:0]
	for i, u := range us {
		if keep[i] {
			out = append(out, u)
		}
	}
	return out
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
	// one per key; decode parses the checkpointed result of key x.
	start  func() (engine[[]any], error)
	decode func(x int, raw json.RawMessage) (any, error)
	// replays marks a miss-rate unit: its simulated accesses count
	// toward the experiment.accesses metric.
	replays bool
	// lru is a stack-distance unit's shape (profileUnit), which
	// mergeProfiles widens; nil on every other unit.
	lru *lruShape
	// specs are the cache designs the unit builds at its opts' L1 and
	// line size (a grid's units carry all of the grid's), which
	// planUnits checks before any unit starts.
	specs []Spec
}

// An engine is one unit's consumer in a pass: feed takes the stream the
// unit reads, chunk by chunk in trace order, and results returns what
// it computed once the last chunk is in. An engine that drives a pair
// of L1 caches (timedEngine) also reads their counters with l1: the D
// side's, then the I side's.
type engine[R any] struct {
	feed    func(*chunk)
	results func() (R, error)
	l1      func() [2]UnitResult
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
		decode: func(_ int, raw json.RawMessage) (any, error) { return decodeAs[R](raw) },
	}
}

// decodeAs parses raw as an R.
func decodeAs[R any](raw json.RawMessage) (any, error) {
	var r R
	err := json.Unmarshal(raw, &r)
	return r, err
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
	// l1, when set, is the L1 spec each config runs: p's unit on config
	// c also answers spec l1[c]'s dSide and iSide miss-rate keys at
	// seed 0 (l1Keys), from its engine's l1 counters.
	l1 []Spec
	// specs are the designs the grid's engines build at its L1 size,
	// which planUnits checks before any unit starts.
	specs []Spec
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
			keys := []string{g.key(p, c)}
			if g.l1 != nil {
				keys = append(keys, l1Keys(g.opts, g.l1[c], p.Name)...)
			}
			u := newUnit(g.opts, p, fmt.Sprintf("%s/%s/%s", g.id, p.Name, cfg),
				keys, g.reads, func() (engine[[]any], error) {
					e, err := g.run(p, c)
					if err != nil {
						return engine[[]any]{}, wrap(err)
					}
					return engine[[]any]{feed: e.feed, results: func() ([]any, error) {
						r, err := e.results()
						if err != nil {
							return nil, wrap(err)
						}
						if g.l1 == nil {
							return []any{r}, nil
						}
						l1 := e.l1()
						return []any{r, l1[0], l1[1]}, nil
					}}, nil
				})
			u.specs = g.specs
			u.decode = func(x int, raw json.RawMessage) (any, error) {
				if x > 0 {
					return decodeAs[UnitResult](raw)
				}
				return decodeAs[R](raw)
			}
			us = append(us, u)
		}
	}
	return us
}

// l1Keys are the dSide and iSide miss-rate keys of spec on profile's
// canonical (seed 0) trace.
func l1Keys(opts Opts, spec Spec, profile string) []string {
	return []string{unitKey(opts, dSide, spec.Key, 0, profile), unitKey(opts, iSide, spec.Key, 0, profile)}
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
