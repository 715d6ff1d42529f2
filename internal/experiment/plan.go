package experiment

import (
	"encoding/json"
	"hash/fnv"
	"strings"
	"sync"
)

// A Plan is the distributable view of a campaign: the deterministic,
// enumerable list of work units that a coordinator can lease out to
// worker subprocesses. Each planned unit is one that Run schedules
// in-process (Experiment.Units), so executing it yields the same
// checkpoint records under the same keys, and the coordinator's merged
// checkpoint is bit-identical to a single-process run: distribution
// changes where a unit runs, never what it computes.
//
// Planning is cheap (no traces are materialized) and deterministic: the
// same Opts and experiment IDs produce the same unit list in the same
// order on every machine, so a coordinator and its workers can agree on
// the unit space by index alone, cross-checked with Fingerprint.

// Plan is an ordered, deduplicated list of planned units.
type Plan struct {
	units []unit
	// records holds the traces some planned unit runs the CPU model on
	// (empty when trace caching is off).
	records map[traceKey]bool
	// mu serializes Execute; last is the unit it ran last (-1 = none),
	// whose record trace may still be resident.
	mu   sync.Mutex
	last int
}

// Len returns the number of planned units.
func (p *Plan) Len() int { return len(p.units) }

// Key returns the plan key of unit i: its checkpoint keys joined by
// "+", unique because no two planned units commit the same key set.
func (p *Plan) Key(i int) string { return strings.Join(p.units[i].keys, "+") }

// UnitKeys returns the checkpoint keys unit i commits.
func (p *Plan) UnitKeys(i int) []string { return p.units[i].keys }

// Execute runs unit i and returns the JSON of its results, one per
// UnitKeys(i) entry, as the checkpoint stores them. Outside the
// scheduler no group end retires traces, so Execute retires every
// payload of the previous unit's trace whenever it moves to a unit on
// another trace: a worker holds at most one trace at a time. Moving
// onto a trace that CPU-model units use marks it as runUnits does, so
// its streams come from the record trace and the generator runs once.
// A panicking unit returns an error, as it does under the scheduler, so
// a worker reports it instead of dying.
func (p *Plan) Execute(i int) ([]json.RawMessage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.units[i]
	if p.last < 0 || p.units[p.last].trace() != u.trace() {
		if p.last >= 0 {
			p.units[p.last].retire()
		}
		if p.records[u.trace()] {
			sharedTraces.expectRecords(u.trace())
		}
	}
	p.last = i
	var vals []any
	if _, err := protectUnit(i, func(int) (func(), error) {
		var err error
		vals, err = u.exec()
		return nil, err
	}); err != nil {
		return nil, err
	}
	return encode(vals)
}

// Release retires every payload of the last executed unit's trace: a
// worker calls it when its lease ends.
func (p *Plan) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.last >= 0 {
		p.units[p.last].retire()
		p.last = -1
	}
}

// Fingerprint folds every unit key, each followed by a 0xFF separator,
// through FNV-1a so a coordinator and a worker built from different
// flags (or different binaries) cannot silently disagree about what
// unit i means.
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	for i := range p.units {
		h.Write([]byte(p.Key(i)))
		h.Write([]byte{0xFF})
	}
	return h.Sum64()
}

// Done reports whether every checkpoint key of unit i is already present
// in cp (a nil checkpoint marks nothing done).
func (p *Plan) Done(i int, cp *Checkpoint) bool {
	_, ok := lookupAll(p.units[i].keys, func(k string) (any, bool) { return cp.Lookup(k) })
	return ok
}

// PlanCampaign enumerates the units of every experiment named by ids
// (nil or empty = all registered experiments) as campaignUnits does for
// RunAll: deduplicated across experiments and ordered trace-major, so a
// lease of consecutive units covers whole traces. The analytic tables
// have no units and contribute nothing.
func PlanCampaign(opts Opts, ids []string) (*Plan, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var exps []Experiment
	if len(ids) == 0 {
		exps = All()
	} else {
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				return nil, err
			}
			exps = append(exps, e)
		}
	}
	p := &Plan{units: campaignUnits(opts, exps), records: map[traceKey]bool{}, last: -1}
	for _, u := range p.units {
		if u.records && opts.traceBudget() > 0 {
			p.records[u.trace()] = true
		}
	}
	return p, nil
}
