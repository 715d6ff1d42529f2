// Package fault is the simulator's soft-error layer: a deterministic
// bit-flip injector over the metadata arrays of any cache model that
// exposes them, plus the protection models that decide what each flip
// costs.
//
// The B-Cache's whole mechanism lives in mutable decoder state — CAM
// entries reprogrammed on the fly (paper §3.3) — so unlike a
// conventional cache, where a metadata upset costs at worst one stale
// line, a single PD upset can break the decoding-uniqueness invariant
// and corrupt every later lookup of its row. This package makes that
// exposure measurable: inject upsets at a configurable per-access rate,
// classify each one under a protection model (none / parity / SEC-DED),
// and let core.BCache's scrubber repair or degrade. Everything is driven
// by internal/rng, so a campaign with the same seed and rate produces a
// byte-identical fault log on every run.
package fault

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/rng"
)

// Target is a cache model that exposes its raw metadata state as flat,
// stably-numbered per-domain bit spaces. core.BCache, cache.SetAssoc,
// and victim.Cache implement it.
type Target interface {
	// StateBits returns the number of injectable bits in domain d
	// (0 when the model has no such state).
	StateBits(d cache.FaultDomain) uint64
	// FlipStateBit flips one state bit: a silent upset.
	FlipStateBit(d cache.FaultDomain, bit uint64)
	// InvalidateSite conservatively drops the line (and, for PD sites,
	// the decoder entry) owning a bit: the recovery action of a
	// detected error.
	InvalidateSite(d cache.FaultDomain, bit uint64)
}

// Protection selects the error-protection model applied to the arrays.
type Protection uint8

const (
	// None leaves every upset in place: all faults are silent.
	None Protection = iota
	// Parity detects single-bit upsets at the next read; the model
	// invalidates the affected site (a refetch repairs it). Detected
	// faults never corrupt state but do cost extra misses.
	Parity
	// SECDED corrects single-bit upsets in place: state is unchanged.
	// (Multi-bit upsets within one protection word are not modelled;
	// events are independent single-bit flips.)
	SECDED
)

// ParseProtection maps a CLI string to a Protection.
func ParseProtection(s string) (Protection, error) {
	switch s {
	case "none":
		return None, nil
	case "parity":
		return Parity, nil
	case "secded", "sec-ded", "ecc":
		return SECDED, nil
	}
	return None, fmt.Errorf("fault: unknown protection %q (want none|parity|secded)", s)
}

// String names the protection model.
func (p Protection) String() string {
	switch p {
	case None:
		return "none"
	case Parity:
		return "parity"
	case SECDED:
		return "secded"
	}
	return "unknown"
}

// classify returns the model's verdict on a single-bit upset.
func (p Protection) classify() cache.FaultClass {
	switch p {
	case Parity:
		return cache.FaultDetected
	case SECDED:
		return cache.FaultCorrected
	}
	return cache.FaultSilent
}

// Config parameterizes an Injector.
type Config struct {
	// Rate is the per-access probability of injecting one upset.
	Rate float64
	// Protection selects the error-protection model.
	Protection Protection
	// Seed drives the deterministic injection stream.
	Seed uint64
	// ScrubEvery runs a PD scrub every N accesses on B-Cache targets
	// (0 disables periodic scrubbing; detected PD faults still scrub).
	ScrubEvery uint64
	// Domains restricts injection to the listed state arrays (empty =
	// every domain the target exposes). Campaigns use this to isolate
	// the decoder's exposure.
	Domains []cache.FaultDomain
	// LogLimit bounds the retained event log (0 = DefaultLogLimit).
	// Counts stay exact past the limit; only per-event records stop.
	LogLimit int
}

// DefaultLogLimit bounds the event log unless Config overrides it.
const DefaultLogLimit = 1 << 16

// Event is one injected upset, as recorded in the fault log.
type Event struct {
	// Access is the access ordinal (1-based) the upset preceded.
	Access uint64            `json:"access"`
	Domain cache.FaultDomain `json:"domain"`
	Bit    uint64            `json:"bit"`
	Class  cache.FaultClass  `json:"class"`
}

// Counts are the exact classification totals of a run.
type Counts struct {
	Injected  uint64                        `json:"injected"`
	Silent    uint64                        `json:"silent"`
	Detected  uint64                        `json:"detected"`
	Corrected uint64                        `json:"corrected"`
	ByDomain  [cache.NumFaultDomains]uint64 `json:"byDomain"`
}

// Injector wraps a cache and flips deterministic bits in its metadata as
// accesses flow through. It implements cache.Cache (delegating to the
// wrapped model) and cache.Probed (fault and scrub events are emitted to
// the attached probe alongside the inner cache's access events).
//
// Like the models it wraps, an Injector is goroutine-confined.
type Injector struct {
	inner  cache.Cache
	target Target
	bc     *core.BCache // non-nil when the target has a PD to scrub
	cfg    Config
	rng    *rng.Source
	// rate is rng.Threshold(cfg.Rate): an access injects when a draw
	// falls below it, the same decision as a Float64 draw below Rate.
	rate uint64

	// domains and weights are the injectable domains and their bit
	// counts; totalBits is the sum (sites are chosen uniformly over
	// bits, so larger arrays absorb proportionally more upsets).
	domains   []cache.FaultDomain
	weights   []uint64
	totalBits uint64

	accesses  uint64
	nextScrub uint64
	counts    Counts
	scrub     core.ScrubReport
	scrubs    uint64
	log       []Event
	logLimit  int
	probe     cache.Probe
}

var (
	_ cache.Cache    = (*Injector)(nil)
	_ cache.Probed   = (*Injector)(nil)
	_ cache.Replayer = (*Injector)(nil)
)

// Wrap builds an injector around c. It fails if c does not expose fault
// state or if cfg is out of range.
func Wrap(c cache.Cache, cfg Config) (*Injector, error) {
	if cfg.Rate < 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("fault: rate %g outside [0,1]", cfg.Rate)
	}
	t, ok := c.(Target)
	if !ok {
		return nil, fmt.Errorf("fault: cache %s exposes no injectable state", c.Name())
	}
	in := &Injector{
		inner:    c,
		target:   t,
		cfg:      cfg,
		rng:      rng.New(cfg.Seed),
		rate:     rng.Threshold(cfg.Rate),
		logLimit: cfg.LogLimit,
	}
	if in.logLimit <= 0 {
		in.logLimit = DefaultLogLimit
	}
	if bc, ok := c.(*core.BCache); ok {
		in.bc = bc
	}
	domains := cfg.Domains
	if len(domains) == 0 {
		domains = []cache.FaultDomain{cache.FaultTag, cache.FaultValid, cache.FaultDirty, cache.FaultPD}
	}
	for _, d := range domains {
		if n := t.StateBits(d); n > 0 {
			in.domains = append(in.domains, d)
			in.weights = append(in.weights, n)
			in.totalBits += n
		}
	}
	if cfg.Rate > 0 && in.totalBits == 0 {
		return nil, fmt.Errorf("fault: cache %s has no injectable bits in the requested domains", c.Name())
	}
	if cfg.ScrubEvery > 0 {
		in.nextScrub = cfg.ScrubEvery
	}
	return in, nil
}

// Unwrap returns the wrapped cache (for PD-stat printing and reports).
func (in *Injector) Unwrap() cache.Cache { return in.inner }

// Counts returns the exact classification totals so far.
func (in *Injector) Counts() Counts { return in.counts }

// Events returns the retained fault log (bounded by Config.LogLimit).
func (in *Injector) Events() []Event { return in.log }

// ScrubTotals returns the accumulated scrub report and pass count.
func (in *Injector) ScrubTotals() (core.ScrubReport, uint64) { return in.scrub, in.scrubs }

// Degraded reports whether a wrapped B-Cache fell back to direct-mapped
// indexing (always false for other models).
func (in *Injector) Degraded() bool { return in.bc != nil && in.bc.Degraded() }

// Access implements cache.Cache: possibly inject one upset, then run the
// access on the wrapped model, then run any scheduled scrub.
func (in *Injector) Access(a addr.Addr, write bool) cache.Result {
	in.accesses++
	if in.cfg.Rate > 0 && in.rng.Below(in.rate) {
		in.inject()
	}
	res := in.inner.Access(a, write)
	if in.nextScrub > 0 && in.accesses >= in.nextScrub {
		in.nextScrub = in.accesses + in.cfg.ScrubEvery
		in.runScrub()
	}
	return res
}

// Replay implements cache.Replayer: the same injections, scrubs and
// inner accesses, at the same access ordinals, as one Access per
// element. The chunk is split into segments that end at the next scrub
// point or just before the next injection; rng.Until finds that
// injection with the same Below draws Access makes, and each segment
// runs through the inner cache's own Replay, its events renumbered from
// the start of stream. Rate 0 draws nothing.
func (in *Injector) Replay(stream []cache.MemAccess, ev *[]cache.Event) {
	for off := 0; off < len(stream); {
		rest := stream[off:]
		k := len(rest)
		// Access keeps accesses < nextScrub between calls.
		if left := in.nextScrub - in.accesses; in.nextScrub > 0 && left < uint64(k) {
			k = int(left)
		}
		hit := false
		if in.cfg.Rate > 0 {
			k, hit = in.rng.Until(in.rate, k)
		}
		if hit {
			// The k-th access injects before it runs.
			in.replaySegment(rest[:k-1], off, ev)
			in.accesses += uint64(k)
			in.inject()
			in.replaySegment(rest[k-1:k], off+k-1, ev)
		} else {
			in.replaySegment(rest[:k], off, ev)
			in.accesses += uint64(k)
		}
		off += k
		if in.nextScrub > 0 && in.accesses >= in.nextScrub {
			in.nextScrub = in.accesses + in.cfg.ScrubEvery
			in.runScrub()
		}
	}
}

// replaySegment replays seg, which starts at access off of the caller's
// stream, through the inner cache, numbering its events from there.
func (in *Injector) replaySegment(seg []cache.MemAccess, off int, ev *[]cache.Event) {
	if ev == nil {
		cache.Replay(in.inner, seg, nil)
		return
	}
	n := len(*ev)
	cache.Replay(in.inner, seg, ev)
	for i := n; i < len(*ev); i++ {
		(*ev)[i].Index += uint32(off)
	}
}

// inject flips (or repairs, per protection) one uniformly-chosen state
// bit and records the event.
func (in *Injector) inject() {
	// Pick a bit uniformly over all injectable bits, then locate its
	// domain. totalBits is far below 2^32 for every simulated geometry,
	// so the modulo bias of a 64-bit draw is negligible and the draw
	// order stays stable.
	bit := in.rng.Uint64() % in.totalBits
	var d cache.FaultDomain
	for i, w := range in.weights {
		if bit < w {
			d = in.domains[i]
			break
		}
		bit -= w
	}

	class := in.cfg.Protection.classify()
	switch class {
	case cache.FaultSilent:
		in.target.FlipStateBit(d, bit)
	case cache.FaultDetected:
		// Parity catches the flip at the next read; model the recovery
		// directly: drop the affected site, and scrub the PD when the
		// decoder itself was hit so a detected upset never lingers.
		in.target.InvalidateSite(d, bit)
		if d == cache.FaultPD {
			in.runScrub()
		}
	case cache.FaultCorrected:
		// SEC-DED repairs in place: no state change.
	}

	in.counts.Injected++
	in.counts.ByDomain[d]++
	switch class {
	case cache.FaultSilent:
		in.counts.Silent++
	case cache.FaultDetected:
		in.counts.Detected++
	case cache.FaultCorrected:
		in.counts.Corrected++
	}
	if len(in.log) < in.logLimit {
		in.log = append(in.log, Event{Access: in.accesses, Domain: d, Bit: bit, Class: class})
	}
	if in.probe != nil {
		in.probe.ObserveFault(d, class)
	}
}

// runScrub runs one PD scrub pass on a B-Cache target.
func (in *Injector) runScrub() {
	if in.bc == nil {
		return
	}
	rep := in.bc.ScrubPD()
	in.scrub.Add(rep)
	in.scrubs++
	if in.probe != nil {
		in.probe.ObserveScrub(rep.Repaired, rep.Degraded)
	}
}

// FinalScrub runs a last scrub pass (B-Cache targets) and returns the
// wrapped cache's invariant status; campaigns call it at end of run so
// no silent corruption survives unreported.
func (in *Injector) FinalScrub() error {
	in.runScrub()
	if in.bc != nil {
		return in.bc.CheckInvariants()
	}
	return nil
}

// SetProbe implements cache.Probed: the probe receives the inner cache's
// access events plus the injector's fault and scrub events.
func (in *Injector) SetProbe(p cache.Probe) {
	in.probe = p
	cache.AttachProbe(in.inner, p)
}

// Probe implements cache.Probed.
func (in *Injector) Probe() cache.Probe { return in.probe }

// Contains implements cache.Cache.
func (in *Injector) Contains(a addr.Addr) bool { return in.inner.Contains(a) }

// Stats implements cache.Cache.
func (in *Injector) Stats() *cache.Stats { return in.inner.Stats() }

// Geometry implements cache.Cache.
func (in *Injector) Geometry() cache.Geometry { return in.inner.Geometry() }

// Name implements cache.Cache.
func (in *Injector) Name() string {
	return fmt.Sprintf("%s+fault(rate=%g,%s)", in.inner.Name(), in.cfg.Rate, in.cfg.Protection)
}

// Reset implements cache.Cache: the wrapped model and the injection
// stream both return to their initial state, so a Reset run replays the
// identical fault sequence.
func (in *Injector) Reset() {
	in.inner.Reset()
	in.rng = rng.New(in.cfg.Seed)
	in.accesses = 0
	in.counts = Counts{}
	in.scrub = core.ScrubReport{}
	in.scrubs = 0
	in.log = in.log[:0]
	if in.cfg.ScrubEvery > 0 {
		in.nextScrub = in.cfg.ScrubEvery
	} else {
		in.nextScrub = 0
	}
}
