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
// scheduler no group end retires record traces, so Execute retires the
// previous unit's record trace whenever it moves to a unit on another
// trace: a worker holds at most one record trace at a time.
func (p *Plan) Execute(i int) ([]json.RawMessage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.units[i]
	if p.last >= 0 && !p.units[p.last].sameTrace(u) {
		p.units[p.last].retire()
	}
	p.last = i
	vals, err := u.exec()
	if err != nil {
		return nil, err
	}
	return encode(vals)
}

// Release retires the record trace of the last executed unit: a worker
// calls it when its lease ends.
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
// (nil or empty = all registered experiments), in registry order.
// Experiments share work — the baseline column appears in every figure,
// fig9 reads fig8's timed runs — so a unit is planned only if it commits
// a checkpoint key no earlier unit does. A stack-distance unit can
// overlap an earlier one partly (xline's 4/8-way profile and fig4's
// 2/4/8/32-way profile of the same trace); it is planned whole.
// The analytic tables have no units and contribute nothing.
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
	plan := &Plan{last: -1}
	planned := map[string]bool{}
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
			if !dup {
				plan.units = append(plan.units, u)
			}
		}
	}
	return plan, nil
}
