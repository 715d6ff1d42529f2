package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/cachespec"
	"bcache/internal/core"
	"bcache/internal/energy"
	"bcache/internal/obs/tracespan"
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
	// Zero or one means a single run with the canonical seed. fig3 and
	// xrelated plot the canonical trace alone, whatever Seeds says.
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
	if o.L1Size <= 0 || o.LineBytes <= 0 || !addr.IsPow2(uint64(o.L1Size)) || !addr.IsPow2(uint64(o.LineBytes)) {
		return fmt.Errorf("experiment: L1 size %d and line size %d must be positive powers of two", o.L1Size, o.LineBytes)
	}
	if o.L1Size < o.LineBytes {
		return fmt.Errorf("experiment: L1 size %d is smaller than one %d-byte line", o.L1Size, o.LineBytes)
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

// Spec is an L1 cache configuration as an experiment shows it: a
// display name and an energy kind over a registry design. The design's
// Key canonically identifies the configuration, independent of the
// name: work-unit results are shared across experiments under it (see
// unitKey), so table5's "mf8-bas8" column reuses fig4's "MF8"
// simulations.
type Spec struct {
	// Name appears as the table column, e.g. "8way" or "MF8".
	Name string
	// Kind prices the configuration in the energy model.
	Kind energy.Kind
	cachespec.Design
}

// spec names the design key parses to.
func spec(name string, kind energy.Kind, key string) Spec {
	return Spec{Name: name, Kind: kind, Design: cachespec.MustParse(key)}
}

// baselineSpec is the paper's baseline: a direct-mapped cache.
func baselineSpec() Spec { return spec("baseline", energy.DirectMapped, "dm") }

func setAssocSpec(ways int, kind energy.Kind) Spec {
	return spec(fmt.Sprintf("%dway", ways), kind, fmt.Sprintf("sa:%dway:lru", ways))
}

func victimSpec(entries int) Spec {
	return spec(fmt.Sprintf("victim%d", entries), energy.VictimDM, fmt.Sprintf("victim:%d", entries))
}

// bcacheSpec is the B-Cache at mf and bas with LRU replacement.
func bcacheSpec(mf, bas int) Spec {
	name := fmt.Sprintf("MF%d", mf)
	if bas != 8 {
		name = fmt.Sprintf("MF%d/BAS%d", mf, bas)
	}
	return spec(name, energy.BCache, fmt.Sprintf("bc:mf%d:bas%d:pol0", mf, bas))
}

func hacSpec() Spec { return spec("hac32", energy.HAC, "hac:32") }

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
		bcacheSpec(2, 8),
		bcacheSpec(4, 8),
		bcacheSpec(8, 8),
		bcacheSpec(16, 8),
	}
}

// side selects which L1 a miss-rate experiment drives.
type side int

const (
	dSide side = iota
	iSide
)

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
	// extra sums the extra hit cycles across seeds (UnitResult.Extra).
	extra uint64
	// pdHitDuringMiss is pdHit/(pdHit+pdMiss): the PD hit rate during
	// misses, computed once from the summed counters so seeds with
	// unequal miss counts carry their true weight.
	pdHitDuringMiss float64
}

// unitKey names one (side, scale, spec, seed, profile) work unit for the
// checkpoint and the campaign's results. The key is self-describing —
// it embeds everything the stored counters depend on — so a checkpoint
// written at one scale can never poison a resume at another. specKey is
// the spec's canonical configuration key (its design's Key), not its display
// name, so experiments that render the same configuration under
// different column names share one simulation. v2: specs are keyed
// canonically (v1 used display names).
func unitKey(opts Opts, s side, specKey string, seedIdx int, profile string) string {
	return fmt.Sprintf("v2|side=%d|n=%d|size=%d|line=%d|spec=%s|seed=%d|prof=%s",
		s, opts.Instructions, opts.L1Size, opts.LineBytes, specKey, seedIdx, profile)
}

// commit is a result committed under a key and the label of the unit
// that committed it, which a disagreeing second commit names
// (checkCommits).
type commit struct {
	v  any
	by string
}

// lookupAll returns the results stored under every key, or false if any
// is missing.
func lookupAll(keys []string, get func(x int, key string) (any, bool)) ([]any, bool) {
	out := make([]any, len(keys))
	for x, key := range keys {
		v, ok := get(x, key)
		if !ok {
			return nil, false
		}
		out[x] = v
	}
	return out, true
}

// restore decodes a checkpoint record of u; one that does not decode
// counts as missing, so the unit re-simulates and overwrites it.
func (u unit) restore(cp *Checkpoint) func(int, string) (any, bool) {
	return func(x int, key string) (any, bool) {
		raw, ok := cp.Lookup(key)
		if !ok {
			return nil, false
		}
		v, err := u.decode(x, raw)
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
// campaignUnits orders a campaign so each trace is one group, and
// simulates each key once, so the campaign is the only scope in which
// units share results.
//
// A unit whose keys opts.Checkpoint all holds is restored from it
// (resume: results round-trip through JSON exactly); every other unit's
// engine joins its group's pass, and a group with no such unit runs no
// pass. A simulated unit is recorded in the checkpoint under its keys.
func runUnits(opts Opts, units []unit) (results, error) {
	cp := opts.Checkpoint
	tel := CurrentTelemetry()
	// One slot per unit, written only by its own commit closure.
	vals := make([][]any, len(units))
	// simulated is unit i's commit of the results v its pass computed.
	simulated := func(i int, v []any) outcome {
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
			for x, raw := range raws {
				cp.Record(u.keys[x], raw)
			}
			if u.replays {
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
			v, ok := lookupAll(units[i].keys, units[i].restore(cp))
			if !ok {
				pending, at = append(pending, i), append(at, x)
				continue
			}
			outs[x].commit = func() { vals[i] = v }
			if tel != nil {
				// A restored unit takes no time of the pass.
				outs[x].start = tel.now()
			}
		}
		if len(pending) == 0 {
			return outs
		}
		pos := runGroupPass(ctx, units, pending, tel)
		checkCommits(units, pending, pos, cp)
		for x, po := range pos {
			out := po.outcome
			if out.err == nil {
				out = simulated(pending[x], po.vals)
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

// checkCommits fails every successful outcome whose results disagree
// with a result already committed under one of the unit's keys: by an
// earlier unit of pending (outs[x] is pending[x]'s), or by the
// checkpoint cp (nil: none) a resumed run restored. A result is a pure
// function of its key, so two units that answer one key — a timed run
// and a stack-distance profile, say — must commit byte-identical JSON;
// a mismatch names both units.
func checkCommits(units []unit, pending []int, outs []passOutcome, cp *Checkpoint) {
	seen := map[string]commit{}
	for x, i := range pending {
		out, u := &outs[x], units[i]
		for y, key := range u.keys {
			prev, ok := seen[key]
			if !ok {
				var raw json.RawMessage
				raw, ok = cp.Lookup(key)
				prev = commit{raw, "the checkpoint"}
			}
			if ok && out.err == nil {
				out.err = agree(key, prev, u.label, out.vals[y])
			}
		}
		if out.err == nil {
			for y, key := range u.keys {
				if _, ok := seen[key]; !ok {
					seen[key] = commit{out.vals[y], u.label}
				}
			}
		}
	}
}

// agree returns nil when unit label's result v under key has the JSON
// of the result prev committed there, and an error naming both units
// otherwise.
func agree(key string, prev commit, label string, v any) error {
	was, err := json.Marshal(prev.v)
	if err != nil {
		return err
	}
	now, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if !bytes.Equal(was, now) {
		return fmt.Errorf("experiment: key %s: unit %s committed %s, unit %s computed %s",
			key, prev.by, was, label, now)
	}
	return nil
}

// replayEngine is the engine of one replay of spec on one side of a
// trace: build the cache, replay the side's stream through it, and
// return the raw counters, with the extra hit cycles summed off the
// replay's hit events. It is the engine of every sweep replay unit,
// whether the in-process scheduler or a worker subprocess (plan.go)
// runs it, so both compute bit-identical units.
func replayEngine(opts Opts, s side, spec Spec) (engine[[]UnitResult], error) {
	c, err := spec.New(opts.L1Size, opts.LineBytes)
	if err != nil {
		return engine[[]UnitResult]{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	st := s.stream(opts.LineBytes)
	var extra uint64
	feed := func(ch *chunk) {
		ch.events = ch.events[:0]
		cache.Replay(c, ch.accesses(st), &ch.events)
		for _, e := range ch.events {
			if !e.Miss {
				extra += uint64(e.Extra)
			}
		}
	}
	return engine[[]UnitResult]{feed: feed, results: func() ([]UnitResult, error) {
		u := cacheCounters(c)
		u.Extra = extra
		return []UnitResult{u}, nil
	}}, nil
}

// cacheCounters reads the counters a unit commits for cache c: misses
// and accesses, a B-Cache's PD outcomes during misses, and a victim
// cache's extra hit cycles, one per hit its buffer served.
func cacheCounters(c cache.Cache) UnitResult {
	st := c.Stats()
	u := UnitResult{Misses: st.Misses, Accesses: st.Accesses}
	switch c := c.(type) {
	case *core.BCache:
		pd := c.PDStats()
		u.PDHit, u.PDMiss = pd.MissPDHit, pd.MissPDMiss
	case *victim.Cache:
		u.Extra = c.BufferHits
	}
	return u
}

// lruShape is what a stack-distance unit profiles: one side's stream at
// one line size, against the geometry behind each of the unit's keys:
// an LRU (sets, ways) shape, a direct-mapped array and the depth of
// the victim buffer behind it, or an LRU B-Cache.
type lruShape struct {
	side  side
	line  int
	geoms []stackdist.Geom
}

// profileEngine answers every geometry of sh with a single Mattson
// stack-distance pass: under LRU's inclusion property an access hits a
// (sets, ways) cache iff its per-set reuse distance is below ways, a
// victim buffer of V lines hits iff the line is among the V most
// recent direct-mapped evictions not back in the array, and an LRU
// B-Cache hits iff a direct-mapped cache of frames·MF lines hits and
// the line's PD group is among its row's BAS most recent, so one
// profile yields the same counters a per-spec replay would
// (cacheCounters) — bit-identically — at a fraction of the work. It is
// the stack-distance counterpart of replayEngine.
func profileEngine(sh lruShape) (engine[[]UnitResult], error) {
	prof, err := stackdist.NewProfile(sh.line, sh.geoms)
	if err != nil {
		return engine[[]UnitResult]{}, err
	}
	st := sh.side.stream(sh.line)
	var as []addr.Addr
	feed := func(ch *chunk) {
		as = as[:0]
		for _, m := range ch.accesses(st) {
			as = append(as, m.Addr())
		}
		prof.Replay(as)
	}
	return engine[[]UnitResult]{feed: feed, results: func() ([]UnitResult, error) {
		out := make([]UnitResult, len(sh.geoms))
		for x, g := range sh.geoms {
			u := UnitResult{Accesses: prof.Accesses()}
			var err error
			switch {
			case g.MF > 0:
				u.Misses, u.PDHit, u.PDMiss, err = prof.BCacheMisses(g.Sets, g.MF, g.BAS)
			case g.Victim > 0:
				// A buffer hit is the victim cache's one extra cycle.
				u.Misses, u.Extra, err = prof.VictimMisses(g.Sets, g.Victim)
			default:
				u.Misses, err = prof.Misses(g.Sets, g.Ways)
			}
			if err != nil {
				return nil, err
			}
			out[x] = u
		}
		return out, nil
	}}, nil
}

// profileUnit is the stack-distance unit on p's trace that answers
// keys, key x from geometry sh.geoms[x]. campaignUnits merges the
// profile units of one (trace, side, line) into one (mergeProfiles).
func profileUnit(opts Opts, p *workload.Profile, label string, keys []string, sh lruShape) unit {
	u := newUnit(opts, p, label, keys, sh.side.stream(sh.line), func() (engine[[]UnitResult], error) {
		return profileEngine(sh)
	})
	u.replays = true
	u.lru = &sh
	return u
}

// stream is the stream an L1 on side s reads at lineBytes.
func (s side) stream(lineBytes int) stream {
	if s == iSide {
		return fetchStream(lineBytes)
	}
	return dataStream
}

// lruSpecIndices partitions all into stack-distance-profileable specs
// (pure LRU set-associative shapes valid at the run's geometry and at
// most stackdist.MaxWays wide, victim buffers behind its direct-mapped
// array, and LRU B-Caches of at most stackdist.MaxBAS clusters and 128
// PD groups per row) and the rest, which replay individually.
func lruSpecIndices(opts Opts, all []Spec) (lru, replayed []int) {
	maxWays := min(opts.L1Size/opts.LineBytes, stackdist.MaxWays)
	for si, sp := range all {
		if !opts.DisableStackDist && (sp.LRUWays > 0 && sp.LRUWays <= maxWays || sp.Victim > 0 ||
			sp.MF > 0 && stackdist.BCacheProfiled(sp.MF, sp.BAS)) {
			lru = append(lru, si)
		} else {
			replayed = append(replayed, si)
		}
	}
	return lru, replayed
}

// A sweep is one miss-rate sweep: every profile × (baseline + specs) on
// one L1 side at one scale. The miss-rate experiments (fig3, fig4,
// fig5, fig12, table5, table6, xline and xrelated) declare their units
// as sweeps.
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
	return unitKey(sw.opts, sw.side, spec.Key, k, profile)
}

// units enumerates the sweep's work units, each on the trace of one
// (profile, seed): one stack-distance pass answering every profileable
// spec (LRU shapes and victim buffers), then one replay per remaining
// spec (all of them under Opts.DisableStackDist, the profiler's
// differential oracle). Each commits one result per spec it answers,
// under that spec's key.
func (sw sweep) units() []unit {
	all := sw.all()
	lru, replayed := lruSpecIndices(sw.opts, all)
	frames := sw.opts.L1Size / sw.opts.LineBytes
	shape := lruShape{side: sw.side, line: sw.opts.LineBytes, geoms: make([]stackdist.Geom, len(lru))}
	lruSpecs := make([]Spec, len(lru))
	for x, si := range lru {
		lruSpecs[x] = all[si]
		switch sp := all[si]; {
		case sp.MF > 0:
			shape.geoms[x] = stackdist.Geom{Sets: frames, Ways: 1, MF: sp.MF, BAS: sp.BAS}
		case sp.Victim > 0:
			shape.geoms[x] = stackdist.Geom{Sets: frames, Ways: 1, Victim: sp.Victim}
		default:
			shape.geoms[x] = stackdist.Geom{Sets: frames / sp.LRUWays, Ways: sp.LRUWays}
		}
	}
	var us []unit
	for _, p := range sw.profiles {
		for k := 0; k < sw.opts.seeds(); k++ {
			keys := func(specs ...int) []string {
				out := make([]string, len(specs))
				for x, si := range specs {
					out[x] = sw.key(all[si], k, p.Name)
				}
				return out
			}
			label := func(name string) string { return fmt.Sprintf("%s/%s/seed%d", p.Name, name, k) }
			if len(lru) > 0 {
				u := profileUnit(sw.opts, withSeed(p, k), label(profileSpecName), keys(lru...), shape)
				u.specs = lruSpecs
				us = append(us, u)
			}
			for _, si := range replayed {
				u := newUnit(sw.opts, withSeed(p, k), label(all[si].Name), keys(si), sw.side.stream(sw.opts.LineBytes),
					func() (engine[[]UnitResult], error) { return replayEngine(sw.opts, sw.side, all[si]) })
				u.replays = true
				u.specs = all[si : si+1]
				us = append(us, u)
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
					r.extra += u.Extra
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
