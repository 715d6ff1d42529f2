package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bcache/internal/addr"
	"bcache/internal/altcache"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/energy"
	"bcache/internal/obs/tracespan"
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
	// TraceBytes is accepted and ignored: no trace is kept, so there is
	// nothing to budget. It stays until the benchmark harness, which
	// sets it, stops doing so.
	TraceBytes int64
	// Checkpoint, when non-nil, records the results of every completed
	// work unit, of every experiment, and lets an interrupted run resume
	// bit-identically: units found in the checkpoint are not
	// re-simulated.
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

// memAcc is one data-cache access: the cache package's packed
// address+direction word, 8 bytes per access in a chunk's data stream.
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
	// profile instead of a dedicated replay (see sweep.units).
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

// memo shares committed unit results across experiments in one
// process: a result is a pure function of its key, so experiments that
// overlap in (configuration, profile, scale) space — fig4, fig12,
// table5/6, xline; fig8 and fig9 — simulate each shared unit once.
// runUnits consults the checkpoint first (resume semantics), then this
// memo, then simulates, and publishes every unit it commits here.
var memo sync.Map // unit key string -> typed result

// ResetUnitMemo drops all memoized unit results, so the next run
// simulates every unit again.
func ResetUnitMemo() {
	memo.Range(func(k, _ any) bool {
		memo.Delete(k)
		return true
	})
}

// ResetTimedCache is ResetUnitMemo under its older name: timed results
// live in the one unit memo now, and the benchmark harness (bench/,
// edited only together with the benchmark) still calls this name.
func ResetTimedCache() { ResetUnitMemo() }

// lookupAll returns the results stored under every key, or false if any
// is missing.
func lookupAll(keys []string, get func(string) (any, bool)) ([]any, bool) {
	out := make([]any, len(keys))
	for x, key := range keys {
		v, ok := get(key)
		if !ok {
			return nil, false
		}
		out[x] = v
	}
	return out, true
}

// restore decodes a checkpoint record of u; one that does not decode
// counts as missing, so the unit re-simulates and overwrites it.
func (u unit) restore(cp *Checkpoint) func(string) (any, bool) {
	return func(key string) (any, bool) {
		raw, ok := cp.Lookup(key)
		if !ok {
			return nil, false
		}
		v, err := u.decode(raw)
		return v, err == nil
	}
}

// encode returns the JSON of each result.
func encode(vals []any) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(vals))
	for x, v := range vals {
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		out[x] = raw
	}
	return out, nil
}

// runUnits executes units in one scheduler call and returns the result
// under every key of every completed unit, alongside the joined error of
// any that failed. Consecutive units on one trace form a scheduler
// group, which runs as one pass over the trace (runPass);
// campaignUnits orders a campaign so each trace is one group.
//
// Every unit takes one lookup/commit path: its keys are looked up in
// opts.Checkpoint first (resume: results round-trip through JSON
// exactly), then in the memo, and the unit's engine joins the pass
// only when neither holds all of them; a group with no such unit runs
// no pass. A committed unit is recorded in both under the same keys,
// whichever way it ran.
func runUnits(opts Opts, units []unit) (results, error) {
	cp := opts.Checkpoint
	tel := CurrentTelemetry()
	// One slot per unit, written only by its own commit closure.
	vals := make([][]any, len(units))
	// commit is unit i's commit of v: simulated by this run, or found
	// in the memo.
	commit := func(i int, v []any, simulated bool) outcome {
		u := units[i]
		var raws []json.RawMessage
		if cp != nil {
			var err error
			if raws, err = encode(v); err != nil {
				return outcome{err: fmt.Errorf("%s: %w", u.label, err)}
			}
		}
		return outcome{commit: func() {
			vals[i] = v
			for x, key := range u.keys {
				if raws != nil {
					cp.Record(key, raws[x])
				}
				if simulated {
					memo.Store(key, v[x])
				}
			}
			if simulated && u.replays {
				// A unit replays its trace once, however many specs it answers.
				tel.Emit(tracespan.Span{Kind: tracespan.KindAccesses, Name: u.label,
					Worker: tracespan.SharedWorker, Unit: i, Count: int64(v[0].(UnitResult).Accesses)})
			}
		}}
	}
	uo := unitOpts{
		Timeout: opts.UnitTimeout,
		Retries: opts.UnitRetries,
		Groups:  groupStarts(units),
		Label:   func(i int) string { return units[i].label },
		Owner:   func(i int) string { return units[i].owner },
	}
	err := runUnitsCtl(len(units), opts.workers(), uo, func(ctx context.Context, idx []int) []outcome {
		outs := make([]outcome, len(idx))
		var pending, at []int // unit indices left to simulate, and their positions in idx
		for x, i := range idx {
			u := units[i]
			if v, ok := lookupAll(u.keys, u.restore(cp)); ok {
				outs[x].commit = func() {
					vals[i] = v
					for y, key := range u.keys {
						memo.Store(key, v[y])
					}
				}
			} else if v, ok := lookupAll(u.keys, func(k string) (any, bool) { return memo.Load(k) }); ok {
				outs[x] = commit(i, v, false)
			} else {
				pending, at = append(pending, i), append(at, x)
				continue
			}
			if tel != nil {
				// A unit found by lookup takes no time of the pass.
				outs[x].start = tel.now()
			}
		}
		if len(pending) == 0 {
			return outs
		}
		for x, po := range runGroupPass(ctx, units, pending, tel) {
			out := po.outcome
			if out.err == nil {
				out = commit(pending[x], po.vals, true)
				out.start, out.dur = po.start, po.dur
			}
			outs[at[x]] = out
		}
		return outs
	})
	res := make(results, len(units))
	for i, u := range units {
		if vals[i] == nil {
			continue
		}
		for x, key := range u.keys {
			res[key] = vals[i][x]
		}
	}
	return res, err
}

// groupStarts returns the first index of each run of consecutive units
// of us on one trace: its scheduler groups.
func groupStarts(us []unit) []int {
	var starts []int
	for i, u := range us {
		if i == 0 || u.trace() != us[i-1].trace() {
			starts = append(starts, i)
		}
	}
	return starts
}

// passOutcome is a unit's outcome in a pass, with its results on
// success.
type passOutcome struct {
	outcome
	vals []any
}

// runGroupPass runs the units pending (indices into units, all on one
// trace) as one pass: it starts each unit's engine, feeds them all from
// one run of the generator, and collects each one's results. A unit
// whose engine fails to start, panics or fails fails alone; a failing
// generator fails them all. With a telemetry hub installed it emits the
// pass's trace_build span and places the unit spans so they tile the
// pass in feed order: the first unit's span also covers the pass's
// generation and extraction, whose trace_build span nests in it.
func runGroupPass(ctx context.Context, units []unit, pending []int, tel *Telemetry) []passOutcome {
	outs := make([]passOutcome, len(pending))
	fs := make([]*feeder, len(pending))
	results := make([]func() ([]any, error), len(pending))
	var live []*feeder
	for x, i := range pending {
		var e engine[[]any]
		err := func() (err error) {
			defer recovered(i, &err)
			e, err = units[i].start()
			return err
		}()
		if err != nil {
			outs[x].err = err
			continue
		}
		fs[x] = &feeder{unit: i, reads: units[i].reads, feed: e.feed}
		results[x] = e.results
		live = append(live, fs[x])
	}
	if len(live) == 0 {
		return outs
	}
	var now func() time.Time
	var start time.Time
	if tel != nil {
		now = tel.now
		start = now()
	}
	u := units[pending[0]]
	build, resident, err := runPass(ctx, u.prof, u.opts.Instructions, live, now)
	if tel != nil {
		tel.Emit(tracespan.Span{Kind: tracespan.KindTraceBuild, Name: u.prof.Name,
			Worker: tracespan.SharedWorker, Unit: -1, StartUnixNano: start.UnixNano(),
			DurNanos: int64(build), Bytes: resident})
	}
	at := start
	lead := build
	for x, i := range pending {
		f := fs[x]
		if f == nil {
			continue
		}
		out := &outs[x]
		switch {
		case err != nil:
			out.err = fmt.Errorf("%s: %w", u.prof.Name, err)
		case f.err != nil:
			out.err = f.err
		default:
			out.err = func() (err error) {
				defer recovered(i, &err)
				out.vals, err = results[x]()
				return err
			}()
		}
		if tel != nil {
			out.start, out.dur = at, lead+f.busy
			at, lead = at.Add(out.dur), 0
		}
	}
	return outs
}

// replayEngine is the engine of one replay of spec on one side of a
// trace: build the cache, replay the side's stream through it, and
// return the raw counters. It is the engine of every sweep replay
// unit, whether the in-process scheduler or a worker subprocess
// (plan.go) runs it, so both compute bit-identical units.
func replayEngine(opts Opts, s side, spec Spec) (engine[[]UnitResult], error) {
	c, err := spec.New(opts.L1Size, opts.LineBytes)
	if err != nil {
		return engine[[]UnitResult]{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	feed := func(ch *chunk) { replayData(ch.data, c) }
	if s == iSide {
		feed = func(ch *chunk) { replayFetch(ch.fetchAt(opts.LineBytes), c) }
	}
	return engine[[]UnitResult]{feed: feed, results: func() ([]UnitResult, error) {
		st := c.Stats()
		u := UnitResult{Misses: st.Misses, Accesses: st.Accesses}
		if bc, ok := c.(*core.BCache); ok {
			pd := bc.PDStats()
			u.PDHit, u.PDMiss = pd.MissPDHit, pd.MissPDMiss
		}
		return []UnitResult{u}, nil
	}}, nil
}

// profileEngine answers every spec in lru (indices into all, each with
// LRUWays set) for one side of a trace with a single Mattson
// stack-distance pass: under LRU's inclusion property an access hits a
// (sets, ways) cache iff its per-set reuse distance is below ways, so
// one profile yields the same hit/miss counts a per-spec replay would —
// bit-identically — at a fraction of the work. It is the
// stack-distance counterpart of replayEngine.
func profileEngine(opts Opts, s side, all []Spec, lru []int) (engine[[]UnitResult], error) {
	frames := opts.L1Size / opts.LineBytes
	geoms := make([]stackdist.Geom, len(lru))
	for x, si := range lru {
		w := all[si].LRUWays
		geoms[x] = stackdist.Geom{Sets: frames / w, Ways: w}
	}
	prof, err := stackdist.NewProfile(opts.LineBytes, geoms)
	if err != nil {
		return engine[[]UnitResult]{}, err
	}
	feed := func(ch *chunk) {
		for _, m := range ch.data {
			prof.Access(m.Addr())
		}
	}
	if s == iSide {
		feed = func(ch *chunk) {
			for _, pc := range ch.fetchAt(opts.LineBytes) {
				prof.Access(pc)
			}
		}
	}
	return engine[[]UnitResult]{feed: feed, results: func() ([]UnitResult, error) {
		out := make([]UnitResult, len(lru))
		for x, g := range geoms {
			misses, err := prof.Misses(g.Sets, g.Ways)
			if err != nil {
				return nil, err
			}
			out[x] = UnitResult{Misses: misses, Accesses: prof.Accesses()}
		}
		return out, nil
	}}, nil
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
// one L1 side at one scale. The miss-rate experiments (fig4, fig5,
// fig12, table5, table6, xline) declare their units as sweeps.
type sweep struct {
	opts     Opts
	profiles []*workload.Profile
	specs    []Spec
	side     side
}

// profileSpecName is the pseudo spec name labeling a stack-distance
// profiling unit. It never collides with a real Spec: every registered
// spec name is a concrete configuration like "8way" or "MF8".
const profileSpecName = "lru-profile"

// missResults is one sweep's outcome: results[profile][specName], with
// the baseline under "baseline".
type missResults = map[string]map[string]missRun

// all returns the sweep's spec list, baseline first.
func (sw sweep) all() []Spec { return append([]Spec{baselineSpec()}, sw.specs...) }

// key is the checkpoint key of spec's result on seed k of profile.
func (sw sweep) key(spec Spec, k int, profile string) string {
	return unitKey(sw.opts, sw.side, spec.key(), k, profile)
}

// units enumerates the sweep's work units, each on the trace of one
// (profile, seed): one stack-distance pass answering every profileable
// LRU spec, then one replay per remaining spec (all of them under
// Opts.DisableStackDist, the profiler's differential oracle). Each
// commits one result per spec it answers, under that spec's key.
func (sw sweep) units() []unit {
	all := sw.all()
	lru, replayed := lruSpecIndices(sw.opts, all)
	reads := dataStream
	if sw.side == iSide {
		reads = fetchStream(sw.opts.LineBytes)
	}
	var us []unit
	add := func(p *workload.Profile, k int, specs []int, name string,
		start func() (engine[[]UnitResult], error)) {
		keys := make([]string, len(specs))
		for x, si := range specs {
			keys[x] = sw.key(all[si], k, p.Name)
		}
		u := newUnit(sw.opts, withSeed(p, k), fmt.Sprintf("%s/%s/seed%d", p.Name, name, k), keys, reads, start)
		u.replays = true
		us = append(us, u)
	}
	for _, p := range sw.profiles {
		for k := 0; k < sw.opts.seeds(); k++ {
			if len(lru) > 0 {
				add(p, k, lru, profileSpecName, func() (engine[[]UnitResult], error) {
					return profileEngine(sw.opts, sw.side, all, lru)
				})
			}
			for _, si := range replayed {
				add(p, k, []int{si}, all[si].Name, func() (engine[[]UnitResult], error) {
					return replayEngine(sw.opts, sw.side, all[si])
				})
			}
		}
	}
	return us
}

// rates reduces the sweep's unit results to rates[profile][specName],
// summing raw counters across seeds. A profile with a missing unit is
// left out, and the error names the last one.
func (sw sweep) rates(res results) (out missResults, missing error) {
	all := sw.all()
	out = make(missResults, len(sw.profiles))
	for _, p := range sw.profiles {
		row := make(map[string]missRun, len(all))
		var err error
		for _, spec := range all {
			var r missRun
			for k := 0; k < sw.opts.seeds() && err == nil; k++ {
				var u UnitResult
				if u, err = result[UnitResult](res, sw.key(spec, k, p.Name)); err == nil {
					r.misses += u.Misses
					r.accesses += u.Accesses
					r.pdHit += u.PDHit
					r.pdMiss += u.PDMiss
				}
			}
			if r.accesses > 0 {
				r.missRate = float64(r.misses) / float64(r.accesses)
			}
			if pd := r.pdHit + r.pdMiss; pd > 0 {
				r.pdHitDuringMiss = float64(r.pdHit) / float64(pd)
			}
			row[spec.Name] = r
		}
		if err != nil {
			missing = err
			continue
		}
		out[p.Name] = row
	}
	return out, missing
}

// sweepUnits concatenates the unit lists of sws.
func sweepUnits(sws []sweep) []unit {
	var us []unit
	for _, sw := range sws {
		us = append(us, sw.units()...)
	}
	return us
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
