// Package obs is the simulator's observability layer: implementations of
// the cache.Probe event interface plus the schema-versioned JSON run
// report the CLIs emit.
//
// The paper's claims are dynamic — PD misses reprogram decoder entries on
// the fly (§3.3) and traffic rebalances across sets over a run (§6.4) —
// so run-end aggregate counters cannot show them. This package turns the
// per-event stream into evidence:
//
//   - Counters: run-total event counts, the cheapest possible probe.
//   - IntervalSampler: fixed-memory time-series (miss rate, PD miss rate,
//     reprograms per kilo-access, per-set occupancy heat) snapshotted
//     every N accesses, with adaptive compaction so arbitrarily long runs
//     fit a bounded sample buffer.
//   - Report: a versioned, diffable JSON document combining configuration,
//     totals, set-balance classification, throughput, and the sampler's
//     series.
//
// All probes are zero-allocation per observed event (enforced by
// alloc_test.go) and nil-safe at the emission sites, so an unattached
// simulator pays only a nil check per access.
package obs

import "bcache/internal/cache"

// Counters is the cheapest probe: run-total event counts. The fields
// mirror the cache.Probe event points one-to-one.
type Counters struct {
	Accesses uint64 `json:"accesses"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Writes   uint64 `json:"writes"`
	// PDHits/PDMisses classify cache MISSES by decoder outcome (forced
	// victim vs predetermined); cache hits are PD hits by definition and
	// are not re-counted here.
	PDHits     uint64 `json:"pdHits"`
	PDMisses   uint64 `json:"pdMisses"`
	Reprograms uint64 `json:"reprograms"`
	Evictions  uint64 `json:"evictions"`
	// DirtyEvictions counts evictions the emitting cache marked dirty
	// (writebacks owed); Writebacks counts those the hierarchy actually
	// performed against the L2.
	DirtyEvictions uint64 `json:"dirtyEvictions"`
	Writebacks     uint64 `json:"writebacks"`
	// Faults classify injected soft errors by the protection model's
	// verdict; FaultsByDomain splits them by the state array hit
	// (indexed by cache.FaultDomain).
	Faults          uint64                        `json:"faults"`
	FaultsSilent    uint64                        `json:"faultsSilent"`
	FaultsDetected  uint64                        `json:"faultsDetected"`
	FaultsCorrected uint64                        `json:"faultsCorrected"`
	FaultsByDomain  [cache.NumFaultDomains]uint64 `json:"faultsByDomain"`
	// ScrubPasses/ScrubRepairs/ScrubDegrades count PD scrubber activity.
	ScrubPasses   uint64 `json:"scrubPasses"`
	ScrubRepairs  uint64 `json:"scrubRepairs"`
	ScrubDegrades uint64 `json:"scrubDegrades"`
}

var _ cache.Probe = (*Counters)(nil)

// ObserveAccess implements cache.Probe.
func (c *Counters) ObserveAccess(frame int, hit, write bool) {
	c.Accesses++
	if hit {
		c.Hits++
	} else {
		c.Misses++
	}
	if write {
		c.Writes++
	}
}

// ObservePD implements cache.Probe.
func (c *Counters) ObservePD(hit bool) {
	if hit {
		c.PDHits++
	} else {
		c.PDMisses++
	}
}

// ObserveReprogram implements cache.Probe.
func (c *Counters) ObserveReprogram() { c.Reprograms++ }

// ObserveEvict implements cache.Probe.
func (c *Counters) ObserveEvict(dirty bool) {
	c.Evictions++
	if dirty {
		c.DirtyEvictions++
	}
}

// ObserveWriteback implements cache.Probe.
func (c *Counters) ObserveWriteback() { c.Writebacks++ }

// ObserveFault implements cache.Probe.
func (c *Counters) ObserveFault(d cache.FaultDomain, cl cache.FaultClass) {
	c.Faults++
	if d < cache.NumFaultDomains {
		c.FaultsByDomain[d]++
	}
	switch cl {
	case cache.FaultSilent:
		c.FaultsSilent++
	case cache.FaultDetected:
		c.FaultsDetected++
	case cache.FaultCorrected:
		c.FaultsCorrected++
	}
}

// ObserveScrub implements cache.Probe.
func (c *Counters) ObserveScrub(repaired int, degraded bool) {
	c.ScrubPasses++
	c.ScrubRepairs += uint64(repaired)
	if degraded {
		c.ScrubDegrades++
	}
}

// MissRate returns Misses/Accesses, or 0 for an idle probe.
func (c *Counters) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset zeroes the counters.
func (c *Counters) Reset() { *c = Counters{} }
