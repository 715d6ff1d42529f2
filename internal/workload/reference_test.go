package workload

import (
	"fmt"
	"math"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/rng"
	"bcache/internal/trace"
)

// This file keeps the generator in its plain form — float64
// comparisons, a float-loop geometric sampler, and a 64-entry
// destination-register ring — as the oracle the fast Generator must
// match record for record.

// refGeometric is the float-loop geometric sampler: one Float64 per
// trial, compared against 1/mean.
func refGeometric(r *rng.Source, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for r.Float64() >= p && n < 1<<20 {
		n++
	}
	return n
}

// referenceGenerator is the oracle twin of Generator.
type referenceGenerator struct {
	p   *Profile
	src *rng.Source

	// code walk
	segBase []addr.Addr
	curSeg  int
	segOff  int // instruction offset within segment
	blkLeft int // instructions left in current basic block

	// data walk
	walkers   []refWalker
	cumWeight []float64
	curRegion int
	runLeft   int

	// register dependence model
	hist    [64]uint8 // ring of recent destination registers
	histLen int
	histPos int
	nextDst uint8
}

// newReference validates p and returns the reference generator for it.
func newReference(p *Profile) (*referenceGenerator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &referenceGenerator{p: p, src: rng.New(p.Seed)}

	// Scatter the segments across the code footprint at line granularity,
	// like functions in a real text segment. (A regular spacing would
	// make segment addresses collide only at correlated strides, which
	// distorts both set-associative folding and the parity of the tag
	// bits the B-Cache's programmable decoder borrows.) When the
	// footprint exceeds the instruction cache, segments alias in it; the
	// hot subset (profile.Code.HotSegs) concentrates the pressure.
	const lineBytes = 32
	if p.Code.Footprint/lineBytes < p.Code.Segments {
		return nil, fmt.Errorf("workload %s: %d segments do not fit footprint %d",
			p.Name, p.Code.Segments, p.Code.Footprint)
	}
	slots := make([]int, p.Code.Footprint/lineBytes)
	g.src.Perm(slots)
	g.segBase = make([]addr.Addr, p.Code.Segments)
	for i := range g.segBase {
		g.segBase[i] = CodeBase + addr.Addr(slots[i]*lineBytes)
	}

	g.walkers = make([]refWalker, len(p.Regions))
	g.cumWeight = make([]float64, len(p.Regions))
	var sum float64
	for i := range p.Regions {
		w, err := newRefWalker(&p.Regions[i], g.src)
		if err != nil {
			return nil, fmt.Errorf("workload %s: region %d: %w", p.Name, i, err)
		}
		g.walkers[i] = w
		sum += p.Regions[i].Weight
		g.cumWeight[i] = sum
	}
	for i := range g.cumWeight {
		g.cumWeight[i] /= sum
	}

	g.blkLeft = refGeometric(g.src, p.Code.SegLen)
	g.runLeft = g.runLength(0)
	return g, nil
}

// Profile returns the profile this generator was built from.
func (g *referenceGenerator) Profile() *Profile { return g.p }

func (g *referenceGenerator) runLength(region int) int {
	mean := g.p.Regions[region].RunLen
	if mean < 1 {
		mean = 4
	}
	return refGeometric(g.src, mean)
}

// pickRegion draws a region index by weight.
func (g *referenceGenerator) pickRegion() int {
	x := g.src.Float64()
	for i, c := range g.cumWeight {
		if x < c {
			return i
		}
	}
	return len(g.cumWeight) - 1
}

// nextPC advances the code walk and reports whether the *previous*
// instruction ends its basic block (i.e. is a branch).
func (g *referenceGenerator) nextPC() (pc addr.Addr, isBranch bool) {
	pc = g.segBase[g.curSeg] + addr.Addr(g.segOff*instrBytes)
	g.blkLeft--
	if g.blkLeft > 0 {
		g.segOff++
		return pc, false
	}
	// Branch. Most basic blocks fall through (or branch a short distance
	// forward): fetch continues sequentially. Otherwise transfer to
	// another segment — hot subset with probability HotFrac, anywhere
	// otherwise — entering at a random line of its body (functions have
	// many branch targets, not just their entry).
	c := g.p.Code
	if g.src.Float64() < c.FallThrough {
		g.segOff++
		g.blkLeft = refGeometric(g.src, c.SegLen)
		return pc, true
	}
	if c.HotSegs > 0 && g.src.Float64() < c.HotFrac {
		g.curSeg = g.src.Intn(c.HotSegs)
	} else {
		g.curSeg = g.src.Intn(c.Segments)
	}
	body := c.BodyLines
	if body <= 0 {
		body = 1
	}
	// Branch targets concentrate near the segment entry (loop heads and
	// call sites early in a function); deep-body lines are reached
	// rarely, giving the footprint a long cold tail.
	entry := refGeometric(g.src, 2.5) - 1
	if entry >= body {
		entry = body - 1
	}
	const instrPerLine = 32 / instrBytes
	g.segOff = entry * instrPerLine
	g.blkLeft = refGeometric(g.src, c.SegLen)
	return pc, true
}

// source returns a source register drawn from the recent-destination
// history at a distance distributed around DepDist, or 0 (no operand)
// when history is empty.
func (g *referenceGenerator) source() uint8 {
	if g.histLen == 0 {
		return 0
	}
	d := refGeometric(g.src, g.p.DepDist)
	if d > g.histLen {
		d = g.histLen
	}
	idx := (g.histPos - d + len(g.hist)*2) % len(g.hist)
	return g.hist[idx]
}

func (g *referenceGenerator) destination() uint8 {
	g.nextDst++
	if g.nextDst >= trace.NumRegs {
		g.nextDst = 1
	}
	d := g.nextDst
	g.hist[g.histPos] = d
	g.histPos = (g.histPos + 1) % len(g.hist)
	if g.histLen < len(g.hist) {
		g.histLen++
	}
	return d
}

// Next implements trace.Stream; the stream is infinite.
func (g *referenceGenerator) Next() (trace.Record, bool) {
	pc, isBranch := g.nextPC()
	rec := trace.Record{PC: pc, Lat: 1}

	switch {
	case isBranch:
		rec.Kind = trace.Branch
		rec.Src1 = g.source()
	case g.src.Float64() < g.p.Mix.Mem:
		if g.runLeft <= 0 {
			g.curRegion = g.pickRegion()
			g.runLeft = g.runLength(g.curRegion)
		}
		g.runLeft--
		a, write := g.walkers[g.curRegion].next(g.src)
		rec.Mem = a
		rec.Src1 = g.source() // address base register
		if write {
			rec.Kind = trace.Store
			rec.Src2 = g.source() // value being stored
		} else {
			rec.Kind = trace.Load
			rec.Dst = g.destination()
		}
	case g.src.Float64() < g.p.Mix.FP:
		rec.Kind = trace.FP
		rec.Lat = g.p.FPLat
		if rec.Lat == 0 {
			rec.Lat = 4
		}
		rec.Src1 = g.source()
		rec.Src2 = g.source()
		rec.Dst = g.destination()
	default:
		rec.Kind = trace.Int
		rec.Src1 = g.source()
		rec.Src2 = g.source()
		rec.Dst = g.destination()
	}
	return rec, true
}

// refWalker produces the address stream of one data region.
type refWalker interface {
	next(src *rng.Source) (a addr.Addr, write bool)
}

func newRefWalker(r *Region, src *rng.Source) (refWalker, error) {
	switch r.Kind {
	case Sequential:
		return &refSeqWalker{r: r}, nil
	case Strided:
		return &refStrideWalker{r: r}, nil
	case PointerChase:
		lines := r.Size / chaseGrain
		if lines < 2 {
			return nil, fmt.Errorf("pointer-chase region smaller than two lines")
		}
		perm := make([]int, lines)
		src.Cycle(perm)
		return &refChaseWalker{r: r, perm: perm}, nil
	case HotSpot:
		return &refHotWalker{r: r}, nil
	case ConflictAlias:
		w := r.Width
		if w <= 0 {
			w = 1
		}
		aw := &refAliasWalker{r: r, width: w}
		if r.Scatter {
			// Draw Degree distinct slots from a 256-slot window so block
			// tags are uncorrelated while all blocks stay index-aligned
			// (AliasStride multiples keep the same set in every cache
			// size up to AliasStride).
			if r.Degree > 256 {
				return nil, fmt.Errorf("scatter supports at most 256 blocks, got %d", r.Degree)
			}
			slots := make([]int, 256)
			src.Perm(slots)
			aw.slots = slots[:r.Degree]
		}
		return aw, nil
	default:
		return nil, fmt.Errorf("unknown pattern %v", r.Kind)
	}
}

func refIsWrite(r *Region, src *rng.Source) bool {
	return r.WriteFrac > 0 && src.Float64() < r.WriteFrac
}

type refSeqWalker struct {
	r   *Region
	pos int
}

func (w *refSeqWalker) next(src *rng.Source) (addr.Addr, bool) {
	a := w.r.Base + addr.Addr(w.pos)
	w.pos += streamGrain
	if w.pos >= w.r.Size {
		w.pos = 0
	}
	return a, refIsWrite(w.r, src)
}

type refStrideWalker struct {
	r   *Region
	pos int
}

func (w *refStrideWalker) next(src *rng.Source) (addr.Addr, bool) {
	a := w.r.Base + addr.Addr(w.pos)
	w.pos += w.r.Stride
	if w.pos >= w.r.Size {
		w.pos %= w.r.Size
	}
	return a, refIsWrite(w.r, src)
}

type refChaseWalker struct {
	r    *Region
	perm []int
	cur  int
}

func (w *refChaseWalker) next(src *rng.Source) (addr.Addr, bool) {
	w.cur = w.perm[w.cur]
	return w.r.Base + addr.Addr(w.cur*chaseGrain), refIsWrite(w.r, src)
}

type refHotWalker struct {
	r *Region
}

func (w *refHotWalker) next(src *rng.Source) (addr.Addr, bool) {
	// Quadratic skew: line i is drawn with density ∝ 1/sqrt(i), giving a
	// stack-frame-like concentration on the lowest lines.
	x := src.Float64()
	i := int(x * x * float64(w.r.Hot))
	if i >= w.r.Hot {
		i = w.r.Hot - 1
	}
	return w.r.Base + addr.Addr(i*hotGrain), refIsWrite(w.r, src)
}

type refAliasWalker struct {
	r     *Region
	width int
	slots []int // non-nil in scatter mode
	block int
	line  int
}

func (w *refAliasWalker) next(src *rng.Source) (addr.Addr, bool) {
	slot := w.block
	if w.slots != nil {
		slot = w.slots[w.block]
	}
	a := w.r.Base + addr.Addr(slot*w.r.AliasStride+w.line*chaseGrain)
	w.line++
	if w.line >= w.width {
		w.line = 0
		if w.r.RandomOrder {
			w.block = src.Intn(w.r.Degree)
		} else {
			w.block++
			if w.block >= w.r.Degree {
				w.block = 0
			}
		}
	}
	return a, refIsWrite(w.r, src)
}

// matchReference draws n records from ref and from two fast generators
// built from the same profile — one read through Next, one through Fill
// in ragged chunks — and fails on the first record that differs in any
// field.
func matchReference(t *testing.T, ref *referenceGenerator, viaNext, viaFill *Generator, n int) {
	t.Helper()
	name := ref.Profile().Name
	buf := make([]trace.Record, 4099)
	chunks := []int{4099, 0, 1, 7, 1000, 4096}
	for i, c := 0, 0; i < n; c++ {
		chunk := buf[:min(chunks[c%len(chunks)], n-i)]
		for k := range chunk {
			chunk[k] = trace.Record{PC: ^addr.Addr(0), Mem: ^addr.Addr(0), Kind: 0xff, Src1: 0xff, Src2: 0xff, Dst: 0xff, Lat: 0xff}
		}
		viaFill.Fill(chunk)
		for k := range chunk {
			want, _ := ref.Next()
			if got, _ := viaNext.Next(); got != want {
				t.Fatalf("%s record %d: Next = %+v, reference %+v", name, i, got, want)
			}
			if chunk[k] != want {
				t.Fatalf("%s record %d: Fill = %+v, reference %+v", name, i, chunk[k], want)
			}
			i++
		}
	}
}

// twins builds the reference generator and two fast generators for p.
func twins(t *testing.T, p *Profile) (ref *referenceGenerator, viaNext, viaFill *Generator, err error) {
	t.Helper()
	if ref, err = newReference(p); err != nil {
		return nil, nil, nil, err
	}
	if viaNext, err = New(p); err != nil {
		t.Fatalf("reference accepts the profile, New does not: %v", err)
	}
	viaFill, _ = New(p)
	return ref, viaNext, viaFill, nil
}

// TestGeneratorMatchesReference: every profile's first million records,
// through Next and through Fill, equal the reference generator's in
// every field.
func TestGeneratorMatchesReference(t *testing.T) {
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			ref, viaNext, viaFill, err := twins(t, p)
			if err != nil {
				t.Fatal(err)
			}
			matchReference(t, ref, viaNext, viaFill, 1_000_000)
		})
	}
}

// fuzzProfile builds a small profile from fuzz knobs. shape picks the
// code layout, the region kinds, their sizes and flags; the float knobs
// pass through unchanged, so the corpus can sit on the edge values the
// threshold conversion must get right (probabilities 0 and 1, means of
// exactly 1, RunLen below 1).
func fuzzProfile(seed uint64, shape uint64, segLen, depDist, fall, hot, mem, fp, runLen, write float64) *Profile {
	bits := func(n uint) uint64 {
		v := shape & (1<<n - 1)
		shape >>= n
		return v
	}
	p := &Profile{
		Name: "fuzz", Suite: "CINT2K", Seed: seed,
		Code: Code{
			Footprint: 4096 << bits(3), Segments: 1 + int(bits(6)), SegLen: segLen,
			HotFrac: hot, BodyLines: int(bits(4)), FallThrough: fall,
		},
		Mix:     Mix{Mem: mem, FP: fp},
		DepDist: depDist,
		FPLat:   uint8(bits(3)),
	}
	p.Code.HotSegs = int(bits(6)) % (p.Code.Segments + 1)
	for i := 0; i < 1+int(bits(2)); i++ {
		r := Region{
			Kind: PatternKind(bits(3) % 5), Base: DataBase + addr.Addr(i)<<24,
			Size: 64 << bits(4), Stride: 8 << bits(4), Hot: 1 + int(bits(6)),
			AliasStride: 1024 << bits(3), Degree: 2 + int(bits(5)), Width: int(bits(2)),
			Scatter: bits(1) == 1, RandomOrder: bits(1) == 1,
			Weight: 1 + float64(bits(3)), WriteFrac: write, RunLen: runLen * float64(i+1),
		}
		p.Regions = append(p.Regions, r)
	}
	return p
}

// FuzzGeneratorVsReference: random valid profiles, including the edge
// knobs (SegLen and DepDist of 1, no hot segments, FallThrough 0 or 1,
// RunLen below 1, WriteFrac 0 or 1), generate the reference stream
// through Next and Fill.
func FuzzGeneratorVsReference(f *testing.F) {
	f.Add(uint64(1), uint64(0), 1.0, 1.0, 0.0, 0.0, 0.3, 0.5, 0.5, 0.0)
	f.Add(uint64(2), ^uint64(0), 6.0, 8.0, 1.0, 0.9, 1.0, 1.0, 0.0, 1.0)
	f.Add(uint64(3), uint64(0x5a5a5a5a5a5a), 1.0001, 2.5, 0.7, 1.0, 0.0, 0.0, 3.0, 0.25)
	f.Add(uint64(4), uint64(0x123456789abcdef), 12.0, 1.0, 0.55, 0.35, 0.45, 0.2, 12.0, 1e-300)
	f.Fuzz(func(t *testing.T, seed, shape uint64, segLen, depDist, fall, hot, mem, fp, runLen, write float64) {
		// Means stay finite and modest: a geometric draw near the 2^20
		// cap is rng's concern (TestGeometricTMatchesFloatLoop), and here
		// it would only make each record cost a million draws.
		for _, mean := range []float64{segLen, depDist, runLen} {
			if math.IsNaN(mean) || math.Abs(mean) > 1e4 {
				t.Skip()
			}
		}
		p := fuzzProfile(seed, shape, segLen, depDist, fall, hot, mem, fp, runLen, write)
		ref, viaNext, viaFill, err := twins(t, p)
		if err != nil {
			t.Skip()
		}
		matchReference(t, ref, viaNext, viaFill, 5000)
	})
}
