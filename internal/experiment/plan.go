package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
)

// A Plan is the distributable view of a campaign: the deterministic,
// enumerable list of trace groups that a coordinator can lease out to
// worker subprocesses, one group per lease. Each planned group is one
// that RunAll runs in-process as one pass (Experiment.Units,
// campaignUnits), so executing it yields the same checkpoint records
// under the same keys, and the coordinator's merged checkpoint is
// bit-identical to a single-process run: distribution changes where a
// pass runs, never what it computes.
//
// Planning is cheap (no trace is generated) and deterministic: the
// same Opts and experiment IDs produce the same groups in the same
// order on every machine, so a coordinator and its workers can agree
// on them by index alone, cross-checked with Fingerprint.

// Plan is an ordered list of trace groups over deduplicated units.
type Plan struct {
	units []unit
	// starts holds the first unit of each group, then len(units).
	starts []int
}

// Len returns the number of planned groups.
func (p *Plan) Len() int { return len(p.starts) - 1 }

// group returns the units of group i.
func (p *Plan) group(i int) []unit { return p.units[p.starts[i]:p.starts[i+1]] }

// UnitKeys returns the checkpoint keys group i commits, unit by unit.
func (p *Plan) UnitKeys(i int) []string {
	var keys []string
	for _, u := range p.group(i) {
		keys = append(keys, u.keys...)
	}
	return keys
}

// Execute runs every unit of group i in one pass and returns the JSON
// of its results, one per UnitKeys(i) entry, as the checkpoint stores
// them. A worker runs a leased group outside the scheduler and holds
// no checkpoint, so every unit of the group runs. Any unit failing —
// by error or panic, including the generator's — fails the call, and
// the worker reports it instead of dying.
func (p *Plan) Execute(i int) (raws []json.RawMessage, err error) {
	defer recovered(p.starts[i], &err)
	us := p.group(i)
	idx := make([]int, len(us))
	for x := range idx {
		idx[x] = x
	}
	var vals []any
	var errs []error
	for _, out := range runGroupPass(context.TODO(), us, idx, nil) {
		vals = append(vals, out.vals...)
		errs = append(errs, out.err)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return encode(vals)
}

// Fingerprint folds every unit key, each followed by a 0xFF separator,
// and the end of each group, as 0xFE, through FNV-1a, so a coordinator
// and a worker built from different flags (or different binaries)
// cannot silently disagree about what group i means.
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	for i := 0; i < p.Len(); i++ {
		for _, k := range p.UnitKeys(i) {
			h.Write([]byte(k))
			h.Write([]byte{0xFF})
		}
		h.Write([]byte{0xFE})
	}
	return h.Sum64()
}

// Done reports whether every checkpoint key of group i is already
// present in cp (a nil checkpoint marks nothing done).
func (p *Plan) Done(i int, cp *Checkpoint) bool {
	_, ok := lookupAll(p.UnitKeys(i), func(k string) (any, bool) { return cp.Lookup(k) })
	return ok
}

// PlanCampaign enumerates the units of every experiment named by ids
// (nil or empty = all registered experiments) as campaignUnits does for
// RunAll — deduplicated across experiments and ordered trace-major —
// and groups them by trace. The analytic tables have no units and
// contribute nothing.
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
	us := campaignUnits(opts, exps)
	return &Plan{units: us, starts: append(groupStarts(us), len(us))}, nil
}
