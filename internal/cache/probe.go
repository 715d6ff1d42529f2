package cache

// Probe observes cache events as they happen, in access order. It is the
// attach point of the observability layer (internal/obs provides the
// implementations: counters, interval samplers, fan-out).
//
// Probes are optional: every emitting model stores a Probe field that is
// nil by default and guards each emission with a nil check, so the hot
// access path pays one predictable branch when no probe is attached. All
// methods take only scalar arguments so an attached probe costs no
// allocations per access (internal/obs/alloc_test.go enforces this).
//
// Event points and their emitters:
//
//	ObserveAccess    every cache model, once per completed Access
//	ObservePD        internal/core.BCache, once per cache miss (the
//	                 decoder lookup outcome; hits imply PD hits)
//	ObserveReprogram internal/core.BCache, once per PD entry rewrite
//	ObserveEvict     every cache model, when a valid line is displaced
//	ObserveWriteback internal/hier.Hierarchy, when a dirty L1 victim is
//	                 actually written into the L2
//	ObserveFault     internal/fault.Injector, once per injected soft
//	                 error, with the protection model's classification
//	ObserveScrub     internal/fault.Injector, once per PD scrub pass
//
// A probe attached to a single cache sees a consistent single-goroutine
// event stream; probes are not required to be safe for concurrent use.
type Probe interface {
	// ObserveAccess records one completed access: the frame that served
	// (or was refilled by) it, whether it hit, and whether it was a write.
	ObserveAccess(frame int, hit, write bool)

	// ObservePD records the programmable-decoder lookup outcome of a
	// cache MISS: hit=true is a forced-victim miss (the PD matched but
	// the tag did not — §2.3's second situation), hit=false a
	// predetermined miss. Cache hits are PD hits by definition and emit
	// only ObserveAccess, keeping the hot path at one probe call; total
	// PD hits are therefore hits + PD-hits-during-miss, and the
	// PD-hit-rate-during-miss of Table 6 is hits/(hits+misses) over this
	// event alone.
	ObservePD(hit bool)

	// ObserveReprogram records one on-the-fly decoder reprogramming (a PD
	// entry write, paper §3.3).
	ObserveReprogram()

	// ObserveEvict records the displacement of a valid line; dirty lines
	// need a writeback at the next level.
	ObserveEvict(dirty bool)

	// ObserveWriteback records a dirty victim actually written to the
	// next memory level (emitted by the hierarchy, not by the cache that
	// evicted the line — attach one probe to both to correlate).
	ObserveWriteback()

	// ObserveFault records one injected soft error: the state array it
	// landed in and the protection model's verdict on it.
	ObserveFault(d FaultDomain, c FaultClass)

	// ObserveScrub records one programmable-decoder scrub pass: how many
	// PD entries it had to repair and whether the cache gave up and
	// degraded to plain direct-mapped indexing.
	ObserveScrub(repaired int, degraded bool)
}

// FaultDomain classifies the state array a soft error landed in. The
// enum lives here (rather than in internal/fault) because cache.Probe
// speaks it and fault targets implement per-domain state accessors.
type FaultDomain uint8

const (
	// FaultTag is a bit of a stored tag.
	FaultTag FaultDomain = iota
	// FaultValid is a line presence bit.
	FaultValid
	// FaultDirty is a line writeback-owed bit.
	FaultDirty
	// FaultPD is a bit of a programmable-decoder CAM entry (B-Cache
	// only; includes the lane-invalid encoding bits on the SWAR path).
	FaultPD
	// NumFaultDomains bounds the enum for array-indexed counters.
	NumFaultDomains
)

// String names the domain for logs and tables.
func (d FaultDomain) String() string {
	switch d {
	case FaultTag:
		return "tag"
	case FaultValid:
		return "valid"
	case FaultDirty:
		return "dirty"
	case FaultPD:
		return "pd"
	}
	return "unknown"
}

// FaultClass is a protection model's verdict on one injected soft error.
type FaultClass uint8

const (
	// FaultSilent means the flip landed undetected: state is corrupted
	// and only a later scrub or a wrong lookup will reveal it.
	FaultSilent FaultClass = iota
	// FaultDetected means the code caught the error (e.g. parity); the
	// affected site is conservatively invalidated, costing a refill.
	FaultDetected
	// FaultCorrected means the code repaired the error in place (e.g.
	// SEC-DED); state is unchanged.
	FaultCorrected
)

// String names the classification for logs and tables.
func (c FaultClass) String() string {
	switch c {
	case FaultSilent:
		return "silent"
	case FaultDetected:
		return "detected"
	case FaultCorrected:
		return "corrected"
	}
	return "unknown"
}

// Probed is implemented by models that support attaching a Probe.
// Passing nil to SetProbe detaches; Probe returns the attached probe,
// or nil.
type Probed interface {
	SetProbe(Probe)
	Probe() Probe
}

// HasProbe reports whether c has a probe attached. A batched replay
// that runs two caches' streams one after the other (package hier) needs
// per-access event order only when one of them is observed.
func HasProbe(c Cache) bool {
	pc, ok := c.(Probed)
	return ok && pc.Probe() != nil
}

// AttachProbe attaches p to c if c supports probing, reporting whether it
// did. It is the polymorphic front door for CLI/experiment code that
// holds caches behind the Cache interface.
func AttachProbe(c Cache, p Probe) bool {
	if pc, ok := c.(Probed); ok {
		pc.SetProbe(p)
		return true
	}
	return false
}
