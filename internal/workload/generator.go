package workload

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/rng"
	"bcache/internal/trace"
)

// Address-space layout of synthetic programs. Code and data live in
// disjoint ranges so instruction and data streams interact with their
// caches independently, as in a real process image.
const (
	// CodeBase is where synthetic text segments start.
	CodeBase addr.Addr = 0x0040_0000
	// DataBase is the lowest address profiles should place data regions.
	DataBase addr.Addr = 0x1000_0000

	instrBytes  = 4  // fixed instruction size (Alpha-like)
	chaseGrain  = 32 // pointer-chase node granularity (one cache line)
	streamGrain = 8  // sequential-walk element size (a float64)
	hotGrain    = 32 // hot-spot line granularity
)

// Generator turns a Profile into an endless instruction stream.
// It implements trace.Stream (Next never returns false; wrap with
// trace.Limit to bound a run).
//
// Every probability and geometric mean of the profile is turned into an
// integer threshold once, in New (rng.Threshold, rng.GeometricThreshold),
// so a draw is one integer compare; the stream is the one the plain
// float comparisons would give, draw for draw (see referenceGenerator
// in the tests).
type Generator struct {
	p *Profile
	// blk draws the stream; its pass bitmap is DepDist's threshold, so
	// a source operand's distance is one bitmap scan.
	blk *rng.Block

	// thresholds precomputed from p
	segLenT   uint64 // Code.SegLen (geometric)
	depT      uint64 // DepDist (geometric)
	fallT     uint64 // Code.FallThrough
	hotT      uint64 // Code.HotFrac
	memT      uint64 // Mix.Mem
	fpT       uint64 // Mix.FP
	cumT      []uint64
	fpLat     uint8
	bodyLines int

	// code walk
	segBase []addr.Addr
	curSeg  int
	segOff  int // instruction offset within segment
	blkLeft int // instructions left in current basic block

	// data walk
	regions   []region
	curRegion int
	runLeft   int

	// register dependence model: destinations cycle through
	// 1..NumRegs-1, so the d-th most recent one is a function of nextDst
	// alone (see source); histLen counts them up to histDepth.
	histLen int
	nextDst uint8
}

var _ trace.Stream = (*Generator)(nil)

// histDepth is how far back a source operand may reach: the producer
// history the dependence model draws from.
const histDepth = 64

// entryThreshold is the geometric threshold of the mean 2.5-line entry
// offset into a branch target's body.
var entryThreshold = rng.GeometricThreshold(2.5)

// region is one data region's walker plus its per-reference thresholds.
type region struct {
	walker regionWalker
	runT   uint64 // RunLen (geometric; default mean 4)
	writeT uint64 // WriteFrac; 0 means no store draw at all
}

// New validates p and returns a deterministic generator for it.
// Two generators built from equal profiles produce identical streams.
func New(p *Profile) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(p.Seed)
	g := &Generator{
		p:         p,
		segLenT:   rng.GeometricThreshold(p.Code.SegLen),
		depT:      rng.GeometricThreshold(p.DepDist),
		fallT:     rng.Threshold(p.Code.FallThrough),
		hotT:      rng.Threshold(p.Code.HotFrac),
		memT:      rng.Threshold(p.Mix.Mem),
		fpT:       rng.Threshold(p.Mix.FP),
		fpLat:     p.FPLat,
		bodyLines: p.Code.BodyLines,
	}
	if g.fpLat == 0 {
		g.fpLat = 4
	}
	if g.bodyLines <= 0 {
		g.bodyLines = 1
	}

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
	src.Perm(slots)
	g.segBase = make([]addr.Addr, p.Code.Segments)
	for i := range g.segBase {
		g.segBase[i] = CodeBase + addr.Addr(slots[i]*lineBytes)
	}

	g.regions = make([]region, len(p.Regions))
	cum := make([]float64, len(p.Regions))
	var sum float64
	for i := range p.Regions {
		r := &p.Regions[i]
		w, err := newRegionWalker(r, src)
		if err != nil {
			return nil, fmt.Errorf("workload %s: region %d: %w", p.Name, i, err)
		}
		mean := r.RunLen
		if mean < 1 {
			mean = 4
		}
		g.regions[i] = region{walker: w, runT: rng.GeometricThreshold(mean), writeT: rng.Threshold(r.WriteFrac)}
		sum += r.Weight
		cum[i] = sum
	}
	g.cumT = make([]uint64, len(cum))
	for i := range cum {
		g.cumT[i] = rng.Threshold(cum[i] / sum)
	}

	// The layout draws above come straight from src; the stream's draws
	// come from the block, which src feeds from here on.
	g.blk = rng.NewBlock(src, g.depT)
	g.blkLeft = g.blk.GeometricT(g.segLenT)
	g.runLeft = g.blk.GeometricT(g.regions[0].runT)
	return g, nil
}

// Profile returns the profile this generator was built from.
func (g *Generator) Profile() *Profile { return g.p }

// pickRegion draws a region index by weight.
func (g *Generator) pickRegion() int {
	x := g.blk.Uint64() >> 11
	for i, t := range g.cumT {
		if x < t {
			return i
		}
	}
	return len(g.cumT) - 1
}

// nextPC advances the code walk and reports whether the *previous*
// instruction ends its basic block (i.e. is a branch).
func (g *Generator) nextPC() (pc addr.Addr, isBranch bool) {
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
	if g.blk.Below(g.fallT) {
		g.segOff++
		g.blkLeft = g.blk.GeometricT(g.segLenT)
		return pc, true
	}
	c := &g.p.Code
	if c.HotSegs > 0 && g.blk.Below(g.hotT) {
		g.curSeg = g.blk.Intn(c.HotSegs)
	} else {
		g.curSeg = g.blk.Intn(c.Segments)
	}
	// Branch targets concentrate near the segment entry (loop heads and
	// call sites early in a function); deep-body lines are reached
	// rarely, giving the footprint a long cold tail.
	entry := g.blk.GeometricT(entryThreshold) - 1
	if entry >= g.bodyLines {
		entry = g.bodyLines - 1
	}
	const instrPerLine = 32 / instrBytes
	g.segOff = entry * instrPerLine
	g.blkLeft = g.blk.GeometricT(g.segLenT)
	return pc, true
}

// source returns a source register drawn from the recent-destination
// history at a distance distributed around DepDist, or 0 (no operand)
// when history is empty. Destinations are handed out cyclically, so the
// d-th most recent one (d ≤ histLen ≤ histDepth) is nextDst stepped back
// d-1 places in the cycle 1..NumRegs-1.
func (g *Generator) source() uint8 {
	if g.histLen == 0 {
		return 0
	}
	d := g.blk.GeometricPass()
	if d > g.histLen {
		d = g.histLen
	}
	return stepBack[int(g.nextDst)-d+histDepth]
}

// period is the length of the destination cycle 1..NumRegs-1.
const period = trace.NumRegs - 1

// stepBack[x+histDepth] is (x mod period) + 1 for x from -histDepth up
// to NumRegs-1: for x = nextDst-d, the d-th most recent destination,
// without a division.
var stepBack = func() (t [histDepth + trace.NumRegs]uint8) {
	for i := range t {
		t[i] = uint8((i-histDepth+3*period)%period + 1)
	}
	return t
}()

func (g *Generator) destination() uint8 {
	g.nextDst++
	if g.nextDst >= trace.NumRegs {
		g.nextDst = 1
	}
	if g.histLen < histDepth {
		g.histLen++
	}
	return g.nextDst
}

// Next implements trace.Stream; the stream is infinite.
func (g *Generator) Next() (trace.Record, bool) {
	var rec trace.Record
	g.blk.Reserve()
	g.step(&rec)
	return rec, true
}

// Fill writes the next len(dst) records of the stream into dst — the
// records len(dst) calls to Next would return — overwriting every field.
func (g *Generator) Fill(dst []trace.Record) {
	for i := range dst {
		g.blk.Reserve()
		g.step(&dst[i])
	}
}

// step generates one record into rec. A record takes at most seven
// single draws and six geometric samples, well within one Reserve.
func (g *Generator) step(rec *trace.Record) {
	pc, isBranch := g.nextPC()
	r := trace.Record{PC: pc, Lat: 1}

	switch {
	case isBranch:
		r.Kind = trace.Branch
		r.Src1 = g.source()
	case g.blk.Below(g.memT):
		if g.runLeft <= 0 {
			g.curRegion = g.pickRegion()
			g.runLeft = g.blk.GeometricT(g.regions[g.curRegion].runT)
		}
		g.runLeft--
		reg := &g.regions[g.curRegion]
		r.Mem = reg.walker.next(g.blk)
		// The store draw precedes the operand draws: the draw order is
		// part of the stream (DESIGN §5).
		write := reg.writeT != 0 && g.blk.Below(reg.writeT)
		r.Src1 = g.source() // address base register
		if write {
			r.Kind = trace.Store
			r.Src2 = g.source() // value being stored
		} else {
			r.Kind = trace.Load
			r.Dst = g.destination()
		}
	case g.blk.Below(g.fpT):
		r.Kind = trace.FP
		r.Lat = g.fpLat
		r.Src1 = g.source()
		r.Src2 = g.source()
		r.Dst = g.destination()
	default:
		r.Kind = trace.Int
		r.Src1 = g.source()
		r.Src2 = g.source()
		r.Dst = g.destination()
	}
	*rec = r
}

// regionWalker produces the address stream of one data region.
type regionWalker interface {
	next(src *rng.Block) addr.Addr
}

func newRegionWalker(r *Region, src *rng.Source) (regionWalker, error) {
	switch r.Kind {
	case Sequential:
		return &seqWalker{r: r}, nil
	case Strided:
		return &strideWalker{r: r}, nil
	case PointerChase:
		lines := r.Size / chaseGrain
		if lines < 2 {
			return nil, fmt.Errorf("pointer-chase region smaller than two lines")
		}
		perm := make([]int, lines)
		src.Cycle(perm)
		return &chaseWalker{r: r, perm: perm}, nil
	case HotSpot:
		return &hotWalker{r: r}, nil
	case ConflictAlias:
		w := r.Width
		if w <= 0 {
			w = 1
		}
		aw := &aliasWalker{r: r, width: w}
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

type seqWalker struct {
	r   *Region
	pos int
}

func (w *seqWalker) next(src *rng.Block) addr.Addr {
	a := w.r.Base + addr.Addr(w.pos)
	w.pos += streamGrain
	if w.pos >= w.r.Size {
		w.pos = 0
	}
	return a
}

type strideWalker struct {
	r   *Region
	pos int
}

func (w *strideWalker) next(src *rng.Block) addr.Addr {
	a := w.r.Base + addr.Addr(w.pos)
	w.pos += w.r.Stride
	if w.pos >= w.r.Size {
		w.pos %= w.r.Size
	}
	return a
}

type chaseWalker struct {
	r    *Region
	perm []int
	cur  int
}

func (w *chaseWalker) next(src *rng.Block) addr.Addr {
	w.cur = w.perm[w.cur]
	return w.r.Base + addr.Addr(w.cur*chaseGrain)
}

type hotWalker struct {
	r *Region
}

func (w *hotWalker) next(src *rng.Block) addr.Addr {
	// Quadratic skew: line i is drawn with density ∝ 1/sqrt(i), giving a
	// stack-frame-like concentration on the lowest lines.
	x := src.Float64()
	i := int(x * x * float64(w.r.Hot))
	if i >= w.r.Hot {
		i = w.r.Hot - 1
	}
	return w.r.Base + addr.Addr(i*hotGrain)
}

type aliasWalker struct {
	r     *Region
	width int
	slots []int // non-nil in scatter mode
	block int
	line  int
}

func (w *aliasWalker) next(src *rng.Block) addr.Addr {
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
	return a
}
