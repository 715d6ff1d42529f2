// Package energy models per-access and whole-run memory energy,
// regenerating the paper's Table 3 and Figure 9 analyses.
//
// The paper measured energy with HSPICE and Cacti 3.2 at 0.18 µm; the
// numeric cells of Table 3 did not survive text extraction, but the prose
// quotes every anchor the analysis depends on, and this model is built
// from exactly those anchors:
//
//   - a 6×8 CAM decoder consumes 0.78 pJ and a 6×16 CAM 1.62 pJ per
//     search (§5.4), and one subarray's eight PDs fire per access on each
//     of the tag and data sides;
//   - the B-Cache consumes 10.5% more power per access than the baseline
//     (§5.4) — the baseline absolute energy is *derived* from this anchor
//     and the CAM numbers;
//   - the B-Cache is 17.4%, 44.4% and 65.5% lower than same-sized 2-,
//     4- and 8-way caches (§5.4), fixing the set-associative multipliers;
//   - off-chip access costs 100× a baseline L1 access and static energy
//     is k_static = 50% of baseline total energy (§6.2).
//
// Whole-run energy follows Figure 10:
//
//	E_mem    = E_dyn + E_static
//	E_dyn    = cache_access·E_cache_access + cache_miss·E_misses
//	E_misses = E_next_level_mem + E_cache_block_refill
//	E_static = cycles · E_static_per_cycle
package energy

import (
	"fmt"

	"bcache/internal/core"
)

// CAM search energies from §5.4 (pJ per search).
const (
	CAM6x8PJ  = 0.78
	CAM6x16PJ = 1.62
)

// Params holds the model constants. Use Defaults().
type Params struct {
	// L1BaselinePJ is the per-access energy of the 16 kB direct-mapped
	// baseline. Derived from the paper's anchors; see Defaults.
	L1BaselinePJ float64

	// Per-access multipliers relative to the baseline, fixed by §5.4:
	// B-Cache +10.5%; 2/4/8-way from "17.4%, 44.4%, 65.5% lower".
	BCacheFactor float64
	Way2Factor   float64
	Way4Factor   float64
	Way8Factor   float64
	Way32Factor  float64

	// VictimProbePJ is the extra energy of probing the 16-entry victim
	// buffer (full-tag CAM search plus a possible swap), charged on main
	// cache misses.
	VictimProbePJ float64

	// L2AccessPJ and RefillPJ price one unified-L2 access and one L1
	// block refill.
	L2AccessPJ float64
	RefillPJ   float64

	// OffChipPJ is one main-memory access: 100× the baseline L1 access
	// (§6.2).
	OffChipPJ float64

	// KStatic is the static share of baseline total energy (§6.2: 50%).
	KStatic float64

	// PDMissSaveFrac is the fraction of a B-Cache access saved when the
	// PD predicts the miss so neither tag nor data arrays are read
	// (§2.3, §6.2); the decoder itself still fires.
	PDMissSaveFrac float64
}

// Defaults returns the calibrated parameter set.
func Defaults() Params {
	// The B-Cache adds one subarray's PD searches per access on each
	// side: 8 × 0.78 pJ (tag) + 8 × 1.62 pJ (data).
	camAdd := 8*CAM6x8PJ + 8*CAM6x16PJ
	// It also removes 3 of 18 tag bits, shrinking the tag bitline/sense
	// energy (tagFrac of a baseline access) proportionally, and replaces
	// 3-input NAND decode gates with 2-input ones, saving decSaved of the
	// conventional decoder energy (decFrac of an access). The same
	// fractions drive Table3, keeping both views consistent.
	const (
		tagFrac, tagSaved = 0.20, 3.0 / 18.0
		decFrac, decSaved = 0.12, 0.20
	)
	// Solve (camAdd − base·(tag+dec savings)) / base = 0.105 for base.
	base := camAdd / (0.105 + tagFrac*tagSaved + decFrac*decSaved)
	return Params{
		L1BaselinePJ:   base,
		BCacheFactor:   1.105,
		Way2Factor:     1 / (1 - 0.174) * 1.105, // B-Cache is 17.4% lower than 2-way
		Way4Factor:     1 / (1 - 0.444) * 1.105,
		Way8Factor:     1 / (1 - 0.655) * 1.105,
		Way32Factor:    5.6, // extrapolated beyond the paper's range
		VictimProbePJ:  0.12 * base,
		L2AccessPJ:     3.0 * base, // 256 kB 4-way: larger arrays, 4 ways
		RefillPJ:       1.2 * base, // writing a 32 B line into the L1
		OffChipPJ:      100 * base,
		KStatic:        0.5,
		PDMissSaveFrac: 0.80,
	}
}

// Kind names an L1 configuration for per-access pricing.
type Kind int

// L1 configurations the experiments compare.
const (
	DirectMapped Kind = iota
	Way2
	Way4
	Way8
	Way32
	BCache
	VictimDM // direct-mapped + victim buffer (probe priced separately)
	HAC
)

func (k Kind) String() string {
	switch k {
	case DirectMapped:
		return "direct-mapped"
	case Way2:
		return "2-way"
	case Way4:
		return "4-way"
	case Way8:
		return "8-way"
	case Way32:
		return "32-way"
	case BCache:
		return "b-cache"
	case VictimDM:
		return "victim"
	case HAC:
		return "hac"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// PerAccess returns the L1 per-access energy in pJ for kind.
func (p Params) PerAccess(kind Kind) float64 {
	switch kind {
	case DirectMapped, VictimDM:
		return p.L1BaselinePJ
	case Way2:
		return p.L1BaselinePJ * p.Way2Factor
	case Way4:
		return p.L1BaselinePJ * p.Way4Factor
	case Way8:
		return p.L1BaselinePJ * p.Way8Factor
	case Way32, HAC:
		return p.L1BaselinePJ * p.Way32Factor
	case BCache:
		return p.L1BaselinePJ * p.BCacheFactor
	default:
		panic(fmt.Sprintf("energy: unknown kind %d", int(kind)))
	}
}

// Counts are the traffic figures of one simulated run.
type Counts struct {
	L1Accesses uint64 `json:"l1Accesses"` // I$ + D$ accesses
	L1Misses   uint64 `json:"l1Misses"`   // I$ + D$ misses
	// PDPredictedMisses counts B-Cache misses the PD predicted (no
	// tag/data array read); zero for other configurations.
	PDPredictedMisses uint64 `json:"pdPredictedMisses"`
	// VictimProbes counts victim-buffer probes (main-cache misses);
	// zero for other configurations.
	VictimProbes uint64 `json:"victimProbes"`
	L2Accesses   uint64 `json:"l2Accesses"`
	L2Misses     uint64 `json:"l2Misses"`
	Cycles       uint64 `json:"cycles"`
}

// Breakdown is a run's energy split (pJ).
type Breakdown struct {
	Dynamic float64
	Static  float64
}

// Total returns dynamic + static energy.
func (b Breakdown) Total() float64 { return b.Dynamic + b.Static }

// Dynamic computes the Figure 10 dynamic energy for a run of kind.
func (p Params) Dynamic(kind Kind, c Counts) float64 {
	e := float64(c.L1Accesses) * p.PerAccess(kind)
	// PD-predicted misses skipped the tag and data arrays.
	e -= float64(c.PDPredictedMisses) * p.PerAccess(kind) * p.PDMissSaveFrac
	e += float64(c.VictimProbes) * p.VictimProbePJ
	e += float64(c.L2Accesses) * p.L2AccessPJ
	e += float64(c.L1Misses) * p.RefillPJ
	e += float64(c.L2Misses) * p.OffChipPJ
	return e
}

// StaticPerCycle derives E_static_per_cycle from the *baseline* run so
// that static energy is KStatic of the baseline's total (§6.2). The same
// per-cycle figure is then charged to every configuration: a
// configuration that finishes sooner pays less static energy — the effect
// Figure 9 relies on.
func (p Params) StaticPerCycle(baselineDynamic float64, baselineCycles uint64) float64 {
	if baselineCycles == 0 {
		return 0
	}
	// static = KStatic/(1-KStatic) × dynamic at the baseline.
	return p.KStatic / (1 - p.KStatic) * baselineDynamic / float64(baselineCycles)
}

// Total computes the full Figure 10 energy for a run.
func (p Params) Total(kind Kind, c Counts, staticPerCycle float64) Breakdown {
	return Breakdown{
		Dynamic: p.Dynamic(kind, c),
		Static:  staticPerCycle * float64(c.Cycles),
	}
}

// AccessBreakdown is the Table 3 per-access component split (pJ).
// Component naming follows the paper: T=tag side, D=data side,
// SA=sense amplifiers, Dec=decoder, BL/WL=bit lines and word lines.
type AccessBreakdown struct {
	TSA, TDec, TBLWL float64
	DSA, DDec, DBLWL float64
	DOthers          float64
}

// Total sums the components.
func (a AccessBreakdown) Total() float64 {
	return a.TSA + a.TDec + a.TBLWL + a.DSA + a.DDec + a.DBLWL + a.DOthers
}

// Table3 returns the per-access component breakdown for the baseline and
// the B-Cache. Component fractions of the baseline follow the usual
// Cacti split (tag side ≈25%, data side ≈75%, sense amps and bitlines
// dominating); the B-Cache rows apply the §5 modifications: 3 fewer tag
// bits, CAM PDs added to both decoders, and the simplified NPD gates.
func (p Params) Table3(bcCfg core.Config) (baseline, bcache AccessBreakdown, err error) {
	bc, err := core.New(bcCfg)
	if err != nil {
		return baseline, bcache, err
	}
	b := p.L1BaselinePJ
	baseline = AccessBreakdown{
		TSA: 0.07 * b, TDec: 0.05 * b, TBLWL: 0.13 * b,
		DSA: 0.22 * b, DDec: 0.07 * b, DBLWL: 0.33 * b,
		DOthers: 0.13 * b,
	}
	// Tag side shrinks with the PD-borrowed bits (log2(MF) of them).
	g := bc.Geometry()
	nm := float64(log2i(bcCfg.MF))
	scale := (float64(g.TagBits()) - nm) / float64(g.TagBits())
	bcache = baseline
	bcache.TSA *= scale
	bcache.TBLWL *= scale
	// Decoders: NAND3→NAND2 simplification saves ~20% of decode energy;
	// the CAM PDs add the §5.4 search energies (one subarray's eight PDs
	// per side per access).
	bcache.TDec = baseline.TDec*0.8 + 8*CAM6x8PJ
	bcache.DDec = baseline.DDec*0.8 + 8*CAM6x16PJ
	return baseline, bcache, nil
}

func log2i(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// DrowsyLeakageSave is the fraction of a drowsy line's leakage removed by
// the reduced-voltage state (Flautner et al. report ~75-85%; the §6.4
// discussion assumes drowsy techniques remain applicable on the B-Cache).
const DrowsyLeakageSave = 0.75

// DrowsyStaticFactor scales static energy for a cache that keeps
// drowsyFrac of its frames in the drowsy state: factor = 1 −
// DrowsyLeakageSave × drowsyFrac. It panics on fractions outside [0,1].
func DrowsyStaticFactor(drowsyFrac float64) float64 {
	if drowsyFrac < 0 || drowsyFrac > 1 {
		panic(fmt.Sprintf("energy: drowsy fraction %g out of [0,1]", drowsyFrac))
	}
	return 1 - DrowsyLeakageSave*drowsyFrac
}
