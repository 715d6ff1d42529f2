package experiment

import (
	"hash/fnv"
	"strings"
)

// A Plan is the distributable view of a campaign: the deterministic,
// enumerable list of miss-rate work units that a coordinator can lease
// out to worker subprocesses. Each planned unit is a job of an
// experiment's declared sweep (sweep.jobs) — a single (profile, seed,
// spec) replay, or one (profile, seed) stack-distance pass answering
// every LRU spec at once — the very job missRates schedules in-process,
// so executing it yields the same checkpoint records under the same
// keys. That identity is what makes the coordinator's merged checkpoint
// bit-identical to a single-process run: distribution changes where a
// unit runs, never what it computes.
//
// Planning is cheap (no traces are materialized) and deterministic: the
// same Opts and experiment IDs produce the same unit list in the same
// order on every machine, so a coordinator and its workers can agree on
// the unit space by index alone, cross-checked with Fingerprint.

// profileSpecName is the pseudo spec name keying a stack-distance
// profiling job in a plan. It never collides with a real Spec: every
// registered spec name is a concrete configuration like "8way" or "MF8".
const profileSpecName = "lru-profile"

// KeyedResult is one checkpoint record produced by a planned unit: the
// self-describing unit key plus the raw counters stored under it.
type KeyedResult struct {
	Key    string     `json:"key"`
	Result UnitResult `json:"result"`
}

// plannedUnit is one distributable work unit: a sweep job under its
// plan-unique key.
type plannedUnit struct {
	key string
	sw  sweep
	all []Spec
	job sweepJob
}

// unitKey names job j in a plan: a replay job by its checkpoint key, a
// stack-distance job by the same key shape under the lru-profile
// pseudo spec.
func (sw sweep) unitKey(j sweepJob) string {
	if j.profile {
		return unitKey(sw.opts, sw.side, profileSpecName, j.k, sw.profiles[j.pi].Name)
	}
	return j.keys[0]
}

// Plan is an ordered, deduplicated list of planned units.
type Plan struct {
	units []plannedUnit
}

// Len returns the number of planned units.
func (p *Plan) Len() int { return len(p.units) }

// Key returns the unit key of unit i.
func (p *Plan) Key(i int) string { return p.units[i].key }

// UnitKeys returns the checkpoint keys unit i commits.
func (p *Plan) UnitKeys(i int) []string { return p.units[i].job.keys }

// Execute runs unit i and returns its checkpoint records.
func (p *Plan) Execute(i int) ([]KeyedResult, error) {
	u := p.units[i]
	res, err := u.sw.exec(u.all, u.job)
	if err != nil {
		return nil, err
	}
	out := make([]KeyedResult, len(res))
	for x := range res {
		out[x] = KeyedResult{Key: u.job.keys[x], Result: res[x]}
	}
	return out, nil
}

// Fingerprint folds every unit key, each followed by a 0xFF separator,
// through FNV-1a so a coordinator and a worker built from different
// flags (or different binaries) cannot silently disagree about what
// unit i means.
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, u := range p.units {
		h.Write([]byte(u.key))
		h.Write([]byte{0xFF})
	}
	return h.Sum64()
}

// Done reports whether every checkpoint key of unit i is already present
// in cp (a nil checkpoint marks nothing done).
func (p *Plan) Done(i int, cp *Checkpoint) bool {
	_, ok := lookupAll(p.units[i].job.keys, cp.Lookup)
	return ok
}

// PlanCampaign enumerates the jobs of every sweep the experiments named
// by ids declare (nil or empty = all registered experiments), in
// registry order. Experiments share work — the baseline column appears
// in every figure — so a job is planned only if it commits a checkpoint
// key no earlier job does. A stack-distance job can overlap an earlier
// one partly (xline's 4/8-way profile and fig4's 2/4/8/32-way profile
// of the same trace share a unit key); it is planned whole, under its
// unit key extended with the spec keys it answers, so unit keys stay
// unique. Experiments without sweeps (the analytic tables, the timed
// IPC runs) contribute nothing and simply run in-process after the
// merge.
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
	plan := &Plan{}
	unitKeys := map[string]bool{}
	ckptKeys := map[string]bool{}
	for _, e := range exps {
		if e.sweeps == nil {
			continue
		}
		for _, sw := range e.sweeps(opts) {
			all, jobs, _ := sw.jobs()
			for _, j := range jobs {
				planned := true
				for _, k := range j.keys {
					planned = planned && ckptKeys[k]
					ckptKeys[k] = true
				}
				if planned {
					continue
				}
				key := sw.unitKey(j)
				if unitKeys[key] {
					specs := make([]string, len(j.specs))
					for x, si := range j.specs {
						specs[x] = all[si].key()
					}
					key += "|specs=" + strings.Join(specs, "+")
				}
				unitKeys[key] = true
				plan.units = append(plan.units, plannedUnit{key: key, sw: sw, all: all, job: j})
			}
		}
	}
	return plan, nil
}
