package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bcache/internal/addr"
	"bcache/internal/altcache"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/energy"
	"bcache/internal/rng"
	"bcache/internal/stackdist"
	"bcache/internal/victim"
	"bcache/internal/workload"
)

// Opts controls experiment scale. The paper runs 500 M instructions per
// benchmark after a 2 B fast-forward; the synthetic workloads reach
// steady state within thousands of instructions, so a few million
// instructions reproduce the same steady-state rates in seconds.
type Opts struct {
	// Instructions per benchmark per configuration.
	Instructions uint64
	// Workers bounds concurrent benchmark runs (0 = GOMAXPROCS).
	Workers int
	// L1Size and LineBytes shape the level-one caches under study.
	L1Size    int
	LineBytes int
	// Seeds replicates miss-rate runs with shifted workload seeds and
	// averages the results (noise control for small instruction counts).
	// Zero or one means a single run with the canonical seed.
	Seeds int
	// TraceBytes bounds the shared materialized-trace cache: 0 uses the
	// default budget, negative disables memoization.
	TraceBytes int64
	// Checkpoint, when non-nil, records every completed miss-rate work
	// unit and lets an interrupted run resume bit-identically: units
	// found in the checkpoint are not re-simulated.
	Checkpoint *Checkpoint
	// UnitTimeout abandons a single work unit running longer than this
	// (0 = no deadline); abandoned and ErrTransient units are retried
	// up to UnitRetries times with exponential backoff.
	UnitTimeout time.Duration
	UnitRetries int
	// DisableStackDist forces every pure-LRU baseline spec through its
	// own cache replay instead of the shared one-pass stack-distance
	// profile. The replay path is the differential oracle the profiler
	// is tested against; results are bit-identical either way.
	DisableStackDist bool
	// SetWorkers, when above 1, shards each set-associative replay unit
	// by set index across up to that many goroutines
	// (cache.ReplayShards). Results are bit-identical to sequential
	// replay; the knob only trades cores for unit latency when there are
	// fewer runnable units than cores.
	SetWorkers int
}

// DefaultOpts returns the scale used for EXPERIMENTS.md.
func DefaultOpts() Opts {
	return Opts{
		Instructions: 2_000_000,
		Workers:      0,
		L1Size:       16 * 1024,
		LineBytes:    32,
	}
}

func (o Opts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Opts) validate() error {
	if o.Instructions == 0 {
		return fmt.Errorf("experiment: zero instructions")
	}
	if o.L1Size <= 0 || o.LineBytes <= 0 {
		return fmt.Errorf("experiment: bad L1 shape %d/%d", o.L1Size, o.LineBytes)
	}
	if o.Seeds < 0 {
		return fmt.Errorf("experiment: negative seed count %d", o.Seeds)
	}
	return nil
}

func (o Opts) seeds() int {
	if o.Seeds < 1 {
		return 1
	}
	return o.Seeds
}

// seedShift spreads replica seeds away from the canonical one.
const seedShift = 1_000_003

// withSeed returns p with its seed shifted for replica k (k=0 is the
// canonical profile, untouched).
func withSeed(p *workload.Profile, k int) *workload.Profile {
	if k == 0 {
		return p
	}
	q := *p
	q.Regions = append([]workload.Region(nil), p.Regions...)
	q.Seed += uint64(k) * seedShift
	return &q
}

// memAcc is one data-cache access — the cache package's replayable
// stream element, so set-sharded replay (cache.ReplayShards) can consume
// a materialized trace without conversion.
type memAcc = cache.MemAccess

// Spec is a buildable L1 cache configuration.
type Spec struct {
	// Name appears as the table column, e.g. "8way" or "MF8".
	Name string
	// Key canonically identifies the cache CONFIGURATION, independent
	// of the display name an experiment picks. Two specs with equal
	// keys must build behaviourally identical caches: work-unit results
	// are shared across experiments under this key (see unitKey), so
	// table5's "mf8-bas8" column reuses fig4's "MF8" simulations.
	// Empty falls back to Name, which keeps experiment-local custom
	// specs correct as long as their names are unambiguous.
	Key string
	// Kind prices the configuration in the energy model.
	Kind energy.Kind
	// New builds the cache at the given geometry.
	New func(size, line int) (cache.Cache, error)
	// LRUWays, when positive, marks the spec as a plain LRU
	// set-associative cache of that associativity, whose hit/miss
	// counts the scheduler may derive from a shared stack-distance
	// profile instead of a dedicated replay (see missRates).
	LRUWays int
}

// key returns the canonical configuration identity for unit keys.
func (s Spec) key() string {
	if s.Key != "" {
		return s.Key
	}
	return s.Name
}

// baselineSpec is the paper's baseline: a direct-mapped cache.
func baselineSpec() Spec {
	return Spec{
		Name: "baseline",
		Key:  "dm",
		Kind: energy.DirectMapped,
		New: func(size, line int) (cache.Cache, error) {
			return cache.NewDirectMapped(size, line)
		},
		LRUWays: 1,
	}
}

func setAssocSpec(ways int, kind energy.Kind) Spec {
	return Spec{
		Name: fmt.Sprintf("%dway", ways),
		Key:  fmt.Sprintf("sa:%dway:lru", ways),
		Kind: kind,
		New: func(size, line int) (cache.Cache, error) {
			return cache.NewSetAssoc(size, line, ways, cache.LRU, rng.New(1))
		},
		LRUWays: ways,
	}
}

func victimSpec(entries int) Spec {
	return Spec{
		Name: fmt.Sprintf("victim%d", entries),
		Key:  fmt.Sprintf("victim:%d", entries),
		Kind: energy.VictimDM,
		New: func(size, line int) (cache.Cache, error) {
			return victim.New(size, line, entries)
		},
	}
}

func bcacheSpec(mf, bas int, pol cache.PolicyKind) Spec {
	name := fmt.Sprintf("MF%d", mf)
	if bas != 8 {
		name = fmt.Sprintf("MF%d/BAS%d", mf, bas)
	}
	return Spec{
		Name: name,
		Key:  fmt.Sprintf("bc:mf%d:bas%d:pol%d", mf, bas, pol),
		Kind: energy.BCache,
		New: func(size, line int) (cache.Cache, error) {
			return core.New(core.Config{
				SizeBytes: size, LineBytes: line, MF: mf, BAS: bas, Policy: pol,
			})
		},
	}
}

func hacSpec() Spec {
	return Spec{
		Name: "hac32",
		Key:  "hac:32",
		Kind: energy.HAC,
		New: func(size, line int) (cache.Cache, error) {
			return altcache.NewHAC(size, line)
		},
	}
}

// figureSpecs returns the nine configurations of Figures 4 and 5:
// 2/4/8/32-way, a 16-entry victim buffer, and the B-Cache at MF 2..16
// with BAS = 8 (LRU throughout, as the figure captions state).
func figureSpecs() []Spec {
	return []Spec{
		setAssocSpec(2, energy.Way2),
		setAssocSpec(4, energy.Way4),
		setAssocSpec(8, energy.Way8),
		setAssocSpec(32, energy.Way32),
		victimSpec(16),
		bcacheSpec(2, 8, cache.LRU),
		bcacheSpec(4, 8, cache.LRU),
		bcacheSpec(8, 8, cache.LRU),
		bcacheSpec(16, 8, cache.LRU),
	}
}

// side selects which L1 a miss-rate experiment drives.
type side int

const (
	dSide side = iota
	iSide
)

// replayData drives a data stream through c sequentially.
func replayData(data []memAcc, c cache.Cache) {
	for _, m := range data {
		c.Access(m.Addr(), m.Write())
	}
}

// replayFetch drives a fetch stream through c sequentially.
func replayFetch(fetch []addr.Addr, c cache.Cache) {
	for _, pc := range fetch {
		c.Access(pc, false)
	}
}

// replayWorkersData drives a data stream through c, sharding the replay
// by set index across up to setWorkers goroutines when c supports it
// (see cache.ReplayShards); results are bit-identical to replayData
// either way. setWorkers <= 1 always replays sequentially.
func replayWorkersData(data []memAcc, c cache.Cache, setWorkers int) {
	if setWorkers > 1 {
		if sa, ok := c.(*cache.SetAssoc); ok && sa.ReplayShards(data, nil, setWorkers) {
			return
		}
	}
	replayData(data, c)
}

// replayWorkersFetch is replayWorkersData for the fetch side.
func replayWorkersFetch(fetch []addr.Addr, c cache.Cache, setWorkers int) {
	if setWorkers > 1 {
		if sa, ok := c.(*cache.SetAssoc); ok && sa.ReplayShards(nil, fetch, setWorkers) {
			return
		}
	}
	replayFetch(fetch, c)
}

// missRun is the result of one (benchmark, spec) miss-rate run,
// aggregated over seeds as raw event counts.
type missRun struct {
	missRate float64
	misses   uint64
	accesses uint64
	// pdHit/pdMiss are the PD lookup outcomes during cache misses,
	// summed across seeds (B-Cache only).
	pdHit  uint64
	pdMiss uint64
	// pdHitDuringMiss is pdHit/(pdHit+pdMiss): the PD hit rate during
	// misses, computed once from the summed counters so seeds with
	// unequal miss counts carry their true weight.
	pdHitDuringMiss float64
}

// unitKey names one (side, scale, spec, seed, profile) work unit for the
// checkpoint and the in-process unit memo. The key is self-describing —
// it embeds everything the stored counters depend on — so a checkpoint
// written at one scale can never poison a resume at another. specKey is
// the spec's canonical configuration key (Spec.key), not its display
// name, so experiments that render the same configuration under
// different column names share one simulation. v2: specs are keyed
// canonically (v1 used display names).
func unitKey(opts Opts, s side, specKey string, seedIdx int, profile string) string {
	return fmt.Sprintf("v2|side=%d|n=%d|size=%d|line=%d|spec=%s|seed=%d|prof=%s",
		s, opts.Instructions, opts.L1Size, opts.LineBytes, specKey, seedIdx, profile)
}

// unitMemo shares completed work units across experiments in one
// process: fig4, fig12, table5/6, xline, and xrelated overlap heavily in
// (configuration, profile, scale) space, and a unit's counters are a
// pure function of its unitKey. Lookup order in missRates is checkpoint
// first (resume semantics unchanged), then this memo, then simulation;
// every simulated or checkpoint-restored unit is published here.
var unitMemo sync.Map // unitKey string -> UnitResult

// ResetUnitMemo drops all cross-experiment unit results (test hook and
// perfbench cold-start).
func ResetUnitMemo() {
	unitMemo.Range(func(k, _ any) bool {
		unitMemo.Delete(k)
		return true
	})
}

// memoLookup consults the cross-experiment memo.
func memoLookup(key string) (UnitResult, bool) {
	if v, ok := unitMemo.Load(key); ok {
		return v.(UnitResult), true
	}
	return UnitResult{}, false
}

// profileLRU answers every spec in lru (indices into all, each with
// LRUWays set) for one materialized trace side with a single Mattson
// stack-distance pass: under LRU's inclusion property an access hits a
// (sets, ways) cache iff its per-set reuse distance is below ways, so
// one profile yields the same hit/miss counts a per-spec replay would —
// bit-identically — at a fraction of the work. feed replays the chosen
// side's stream into the profile, one Access per element.
func profileLRU(feed func(*stackdist.Profile), opts Opts, all []Spec, lru []int) ([]UnitResult, error) {
	frames := opts.L1Size / opts.LineBytes
	geoms := make([]stackdist.Geom, len(lru))
	for x, si := range lru {
		w := all[si].LRUWays
		geoms[x] = stackdist.Geom{Sets: frames / w, Ways: w}
	}
	prof, err := stackdist.NewProfile(opts.LineBytes, geoms)
	if err != nil {
		return nil, err
	}
	feed(prof)
	out := make([]UnitResult, len(lru))
	for x, g := range geoms {
		misses, err := prof.Misses(g.Sets, g.Ways)
		if err != nil {
			return nil, err
		}
		out[x] = UnitResult{Misses: misses, Accesses: prof.Accesses()}
	}
	return out, nil
}

// execReplayUnit runs one (profile, seed, spec) replay: materialize (or
// fetch) the trace, build the cache, replay the side, and return the raw
// counters. Through sweep.exec it runs every replay job, whether the
// in-process scheduler (missRates) or a worker subprocess (plan.go)
// executes it, so both compute bit-identical units.
func execReplayUnit(opts Opts, s side, p *workload.Profile, spec Spec, k int) (UnitResult, error) {
	c, err := spec.New(opts.L1Size, opts.LineBytes)
	if err != nil {
		return UnitResult{}, fmt.Errorf("%s/%s: %w", p.Name, spec.Name, err)
	}
	// Fetch only the stream this side replays: a D-side unit never
	// forces an I-side extraction, and vice versa.
	switch s {
	case dSide:
		dt, err := cachedData(opts, withSeed(p, k))
		if err != nil {
			return UnitResult{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		replayWorkersData(dt.accs, c, opts.SetWorkers)
	case iSide:
		ft, err := cachedFetch(opts, withSeed(p, k))
		if err != nil {
			return UnitResult{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		replayWorkersFetch(ft.pcs, c, opts.SetWorkers)
	}
	st := c.Stats()
	u := UnitResult{Misses: st.Misses, Accesses: st.Accesses}
	if bc, ok := c.(*core.BCache); ok {
		pd := bc.PDStats()
		u.PDHit, u.PDMiss = pd.MissPDHit, pd.MissPDMiss
	}
	return u, nil
}

// execProfileUnit runs one (profile, seed) stack-distance pass answering
// every LRU spec in lru (indices into all) at once: sweep.exec's
// stack-distance counterpart of execReplayUnit.
func execProfileUnit(opts Opts, s side, p *workload.Profile, all []Spec, lru []int, k int) ([]UnitResult, error) {
	var feed func(*stackdist.Profile)
	switch s {
	case dSide:
		dt, err := cachedData(opts, withSeed(p, k))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		feed = func(prof *stackdist.Profile) {
			for _, m := range dt.accs {
				prof.Access(m.Addr())
			}
		}
	case iSide:
		ft, err := cachedFetch(opts, withSeed(p, k))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		feed = func(prof *stackdist.Profile) {
			for _, pc := range ft.pcs {
				prof.Access(pc)
			}
		}
	}
	res, err := profileLRU(feed, opts, all, lru)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return res, nil
}

// lruSpecIndices partitions all into stack-distance-profileable specs
// (pure LRU set-associative shapes valid at the run's geometry) and the
// rest, which replay individually.
func lruSpecIndices(opts Opts, all []Spec) (lru, replayed []int) {
	frames := opts.L1Size / opts.LineBytes
	for si, sp := range all {
		if !opts.DisableStackDist && sp.LRUWays > 0 && sp.LRUWays <= frames {
			lru = append(lru, si)
		} else {
			replayed = append(replayed, si)
		}
	}
	return lru, replayed
}

// A sweep is one miss-rate sweep: every profile × (baseline + specs) on
// one L1 side at one scale. It is exactly one missRates call, and the
// unit of what an experiment declares (Experiment.sweeps): its jobs are
// what the in-process scheduler runs and what PlanCampaign leases to
// worker subprocesses, so the two execution paths cannot disagree.
type sweep struct {
	opts     Opts
	profiles []*workload.Profile
	specs    []Spec
	side     side
}

// missResults is one sweep's outcome: results[profile][specName], with
// the baseline under "baseline".
type missResults = map[string]map[string]missRun

// sweepJob is one scheduler work unit of a sweep, on the trace of one
// (profile, seed): either one stack-distance pass answering every
// profileable LRU spec, or the replay of one other spec.
type sweepJob struct {
	pi, k int
	// specs indexes the sweep's baseline-first spec list; keys holds the
	// checkpoint key the job commits for each of them.
	specs []int
	keys  []string
	// profile marks a stack-distance pass (a replay job has one spec).
	profile bool
}

// jobs enumerates the sweep's work units; it is the only enumerator.
// Per (profile, seed) it yields one stack-distance job covering every
// profileable LRU spec, then one replay job per remaining spec (all of
// them under Opts.DisableStackDist, the profiler's differential oracle).
// It returns the baseline-first spec list the jobs index and perSeed,
// the number of consecutive jobs that share one trace.
func (sw sweep) jobs() (all []Spec, jobs []sweepJob, perSeed int) {
	all = append([]Spec{baselineSpec()}, sw.specs...)
	lru, replayed := lruSpecIndices(sw.opts, all)
	perSeed = len(replayed)
	if len(lru) > 0 {
		perSeed++
	}
	seeds := sw.opts.seeds()
	jobs = make([]sweepJob, 0, len(sw.profiles)*seeds*perSeed)
	job := func(pi, k int, specs []int, profile bool) sweepJob {
		keys := make([]string, len(specs))
		for x, si := range specs {
			keys[x] = unitKey(sw.opts, sw.side, all[si].key(), k, sw.profiles[pi].Name)
		}
		return sweepJob{pi: pi, k: k, specs: specs, keys: keys, profile: profile}
	}
	for pi := range sw.profiles {
		for k := 0; k < seeds; k++ {
			if len(lru) > 0 {
				jobs = append(jobs, job(pi, k, lru, true))
			}
			for x := range replayed {
				jobs = append(jobs, job(pi, k, replayed[x:x+1], false))
			}
		}
	}
	return all, jobs, perSeed
}

// label names job j for telemetry spans and the slowest-unit digest.
func (sw sweep) label(all []Spec, j sweepJob) string {
	spec := profileSpecName
	if !j.profile {
		spec = all[j.specs[0]].Name
	}
	return fmt.Sprintf("%s/%s/seed%d", sw.profiles[j.pi].Name, spec, j.k)
}

// exec simulates job j and returns one result per checkpoint key.
func (sw sweep) exec(all []Spec, j sweepJob) ([]UnitResult, error) {
	p := sw.profiles[j.pi]
	if j.profile {
		return execProfileUnit(sw.opts, sw.side, p, all, j.specs, j.k)
	}
	u, err := execReplayUnit(sw.opts, sw.side, p, all[j.specs[0]], j.k)
	if err != nil {
		return nil, err
	}
	return []UnitResult{u}, nil
}

// lookupAll returns the results stored under every key, or false if any
// is missing.
func lookupAll(keys []string, get func(string) (UnitResult, bool)) ([]UnitResult, bool) {
	out := make([]UnitResult, len(keys))
	for x, key := range keys {
		u, ok := get(key)
		if !ok {
			return nil, false
		}
		out[x] = u
	}
	return out, true
}

// missRates runs a sweep and returns results[profile][specName] plus
// the baseline under "baseline".
//
// Pure-LRU set-associative specs (Spec.LRUWays > 0) are not replayed
// one cache at a time: each (profile, seed) trace feeds one profiling
// job whose single stack-distance pass answers all of them at once
// (profileLRU). Every other spec — B-Cache, victim, random/FIFO, the
// related-work designs — replays as its own (profile, seed, spec) job
// (see sweep.jobs). Jobs still saturate the machine: the grain is never
// coarser than one (profile, seed) trace.
//
// Each job looks its checkpoint keys up in opts.Checkpoint first
// (resume: restored bit-identically, since the checkpoint stores the
// raw counters and profiled counts equal replayed counts), then in the
// cross-experiment unit memo, and simulates only when neither holds all
// of them; completed jobs are recorded in both under the same per-spec
// keys whichever way they ran.
//
// Failed or interrupted jobs do not void the run: the returned map
// holds every profile whose jobs all completed, alongside the joined
// error, so callers can render partial results.
func missRates(sw sweep) (missResults, error) {
	opts := sw.opts
	if err := opts.validate(); err != nil {
		return nil, err
	}
	all, jobs, perSeed := sw.jobs()
	seeds := opts.seeds()
	cp := opts.Checkpoint

	// One slot per (profile, seed, spec) result, written only by its
	// owner job's commit closure on the worker goroutine; reduced below.
	perProfile := seeds * len(all)
	units := make([]UnitResult, len(sw.profiles)*perProfile)
	done := make([]bool, len(units))
	uo := unitOpts{
		Timeout: opts.UnitTimeout,
		Retries: opts.UnitRetries,
		Group:   perSeed,
		Label:   func(i int) string { return sw.label(all, jobs[i]) },
	}
	tel := CurrentTelemetry()
	err := runUnitsCtl(len(jobs), opts.workers(), uo, func(i int) (func(), error) {
		j := jobs[i]
		fill := func(res []UnitResult) {
			for x, si := range j.specs {
				idx := j.pi*perProfile + j.k*len(all) + si
				units[idx], done[idx] = res[x], true
			}
		}
		if res, ok := lookupAll(j.keys, cp.Lookup); ok {
			return func() {
				fill(res)
				for x, key := range j.keys {
					unitMemo.Store(key, res[x])
				}
			}, nil
		}
		if res, ok := lookupAll(j.keys, memoLookup); ok {
			// Another experiment already simulated this exact job.
			return func() {
				fill(res)
				for x, key := range j.keys {
					cp.Record(key, res[x])
				}
			}, nil
		}
		res, err := sw.exec(all, j)
		if err != nil {
			return nil, err
		}
		return func() {
			fill(res)
			for x, key := range j.keys {
				cp.Record(key, res[x])
				unitMemo.Store(key, res[x])
			}
			// A job replays its trace once, however many specs it answers.
			tel.addAccesses(res[0].Accesses)
		}, nil
	})

	results := make(missResults, len(sw.profiles))
	for pi, p := range sw.profiles {
		row := make(map[string]missRun, len(all))
		complete := true
		for si, spec := range all {
			var r missRun
			for k := 0; k < seeds; k++ {
				idx := pi*perProfile + k*len(all) + si
				if !done[idx] {
					complete = false
					break
				}
				u := units[idx]
				r.misses += u.Misses
				r.accesses += u.Accesses
				r.pdHit += u.PDHit
				r.pdMiss += u.PDMiss
			}
			if r.accesses > 0 {
				r.missRate = float64(r.misses) / float64(r.accesses)
			}
			if pd := r.pdHit + r.pdMiss; pd > 0 {
				r.pdHitDuringMiss = float64(r.pdHit) / float64(pd)
			}
			row[spec.Name] = r
		}
		if complete {
			results[p.Name] = row
		}
	}
	return results, err
}

// reduction converts a (baseline, config) miss pair into the paper's
// "% reduction in miss rate over baseline".
func reduction(baseline, config missRun) float64 {
	if baseline.misses == 0 {
		return 0
	}
	return 1 - float64(config.misses)/float64(baseline.misses)
}

// averageReduction is spec name's reduction averaged over every profile
// of a completed sweep.
func averageReduction(sw sweep, res missResults, name string) float64 {
	var sum float64
	for _, p := range sw.profiles {
		sum += reduction(res[p.Name]["baseline"], res[p.Name][name])
	}
	return sum / float64(len(sw.profiles))
}
