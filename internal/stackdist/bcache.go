package stackdist

import (
	"fmt"
	"math/bits"
	"slices"

	"bcache/internal/addr"
)

// B-Cache profiling.
//
// An LRU B-Cache of F frames with mapping factor MF and associativity
// BAS splits a line number into R = F/BAS rows (its low log2(R) bits)
// and, within a row, PD groups: the next log2(BAS·MF) bits, the
// programmable index. The low log2(P) bits, P = F·MF, therefore name a
// (row, group) pair. Under LRU the B-Cache is a stack algorithm over
// groups:
//
//   - Every access to a group touches the cluster its PD entry
//     programs, and a PD miss evicts the row's least recently touched
//     cluster once all BAS are programmed. A row's programmed groups are
//     therefore the BAS most recently accessed distinct groups of the
//     row: a group is programmed iff its move-to-front depth among the
//     row's groups is below BAS.
//   - While a group stays programmed, every access to it hits or
//     refills its one frame, so the frame holds the group's last line.
//
// An access thus hits iff (a) the last access with the same low log2(P)
// line bits was to the same line — a P-line direct-mapped cache hits —
// and (b) its group's depth in its row is below BAS. A miss with (b) is
// a PD hit during a miss (MissPDHit), one without is a PD miss. (a)
// depends on P alone and (b) on P and R alone, so one pass answers every
// BAS of one (P, R) from a histogram of depths split by (a).
//
// A bcacheClass keeps the last line of each of P groups; its rows
// levels, one per R, keep each row's groups move-to-front in the eight
// 8-bit lanes of one word, so depths up to MaxBAS are exact and a
// deeper or new group reads as depth MaxBAS. A group id has at most
// seven bits (BAS·MF ≤ 128), so a lane with bit 7 set is empty and
// never matches. A group absent from its row's word has no frame under
// any BAS ≤ MaxBAS, so its access is a PD miss whatever (a) says; a
// group present was accessed before, so its last-line entry is set and
// the array needs no empty marker.

// MaxBAS is the widest B-Cache associativity a Profile answers: the
// lane count of a row word.
const MaxBAS = 8

// maxGroups bounds BAS·MF, the groups of one row: a group id must fit a
// lane's low seven bits.
const maxGroups = 128

// Lane constants of a row word: eight 8-bit lanes.
const (
	laneLSBs = 0x0101010101010101
	laneMSBs = 0x8080808080808080
	// emptyRow is a row word of eight empty lanes.
	emptyRow = 0x80 * laneLSBs
)

// BCacheProfiled reports whether a Profile answers the LRU B-Cache of
// mapping factor mf and associativity bas, both powers of two: bas up
// to MaxBAS and mf·bas up to 128.
func BCacheProfiled(mf, bas int) bool {
	return mf > 0 && bas > 0 && addr.IsPow2(uint64(mf)) && addr.IsPow2(uint64(bas)) &&
		bas <= MaxBAS && mf*bas <= maxGroups
}

// bcacheClass answers every B-Cache with F·MF = P.
type bcacheClass struct {
	// p is P; last[line & (p-1)] holds line >> log2(P) of that group's
	// last access, the tag a P-line direct-mapped cache compares.
	p      int
	pShift uint
	last   []uint32
	// wide ORs every line seen: a line past 2^(32+log2 P) would alias in
	// last's 32-bit tags, and the class then refuses to answer.
	wide addr.Addr
	rows []*bcacheRows // ascending by row count
	// same is scratch for one replay: per access, the histogram offset
	// of (a), MaxBAS+1 when it held and 0 when not.
	same []uint8
}

// bcacheRows answers every BAS ≤ MaxBAS of one (P, R).
type bcacheRows struct {
	r         int
	rowShift  uint      // log2(R): a line's group id starts here
	groupMask addr.Addr // P/R - 1
	// words[row] holds the row's groups, most recent in the low lane.
	words []uint64
	// hist[o+d] counts accesses whose group sat at depth d (MaxBAS:
	// deeper or new), with o the (a) offset of bcacheClass.same.
	hist [2 * (MaxBAS + 1)]uint64
}

// newBCacheClass builds the class of P = p for the row counts rs.
func newBCacheClass(p int, rs []int) *bcacheClass {
	c := &bcacheClass{p: p, pShift: addr.Log2(uint64(p)), last: make([]uint32, p)}
	for _, r := range rs {
		rw := &bcacheRows{r: r, rowShift: addr.Log2(uint64(r)), groupMask: addr.Addr(p/r - 1), words: make([]uint64, r)}
		for i := range rw.words {
			rw.words[i] = emptyRow
		}
		c.rows = append(c.rows, rw)
	}
	return c
}

// replay records the accesses as, lines of 1<<lineShift bytes, in
// order: it settles (a) for each, then moves each group to the front
// of its row at every row count.
func (c *bcacheClass) replay(as []addr.Addr, lineShift uint) {
	if cap(c.same) < len(as) {
		c.same = make([]uint8, len(as))
	}
	same := c.same[:len(as)]
	last, mask, sh := c.last, addr.Addr(c.p-1), c.pShift
	wide := c.wide
	for k, a := range as {
		b := a >> lineShift
		wide |= b
		i, t := b&mask, uint32(b>>sh)
		var o uint8
		if last[i] == t {
			o = MaxBAS + 1
		}
		same[k] = o
		last[i] = t
	}
	c.wide = wide
	for _, r := range c.rows {
		r.replay(as, lineShift, same)
	}
}

// replay moves each access's group to the front of its row word and
// counts its depth under same's (a) offset.
func (r *bcacheRows) replay(as []addr.Addr, lineShift uint, same []uint8) {
	words, hist := r.words, &r.hist
	rowMask, rowShift, groupMask := addr.Addr(r.r-1), r.rowShift, r.groupMask
	same = same[:len(as)]
	for k, a := range as {
		b := a >> lineShift
		row := b & rowMask
		w, d := moveToFront(words[row], uint64(b>>rowShift&groupMask))
		words[row] = w
		hist[uint(same[k])+d]++
	}
}

// moveToFront returns row word w with group g moved to its top lane,
// and g's depth in w before: the lowest lane equal to g (the
// has-zero-byte trick; a false positive can only sit above the true
// match), or MaxBAS when none is, from 64 trailing zeros. Lanes above
// depth d move down one, and lane d (the deepest lane, when g is new)
// drops out; a shift of 64 gives 0, so depth MaxBAS keeps every lane
// below.
func moveToFront(w, g uint64) (uint64, uint) {
	x := w ^ g*laneLSBs
	d := uint(bits.TrailingZeros64((x-laneLSBs)&^x&laneMSBs)) >> 3
	above := uint64(1)<<(8*d) - 1
	return w&^(above<<8|0xFF) | (w&above)<<8 | g, d
}

// result returns the hits and the PD hits during misses of the
// B-Cache with bas clusters per row.
func (r *bcacheRows) result(bas int) (hits, pdHit uint64) {
	for d := 0; d < bas; d++ {
		hits += r.hist[MaxBAS+1+d]
		pdHit += r.hist[d]
	}
	return hits, pdHit
}

// bcacheClasses builds the classes answering every B-Cache geometry of
// geoms, ascending by P, each with its row counts ascending.
func bcacheClasses(geoms []Geom) []*bcacheClass {
	rows := map[int][]int{} // P -> its row counts, each once
	for _, g := range geoms {
		if g.MF == 0 {
			continue
		}
		p, r := g.Sets*g.MF, g.Sets/g.BAS
		if !slices.Contains(rows[p], r) {
			rows[p] = append(rows[p], r)
		}
	}
	var out []*bcacheClass
	for p := 1; len(out) < len(rows); p *= 2 {
		if rs, ok := rows[p]; ok {
			slices.Sort(rs)
			out = append(out, newBCacheClass(p, rs))
		}
	}
	return out
}

// checkBCacheGeom reports why g is not a B-Cache geometry a Profile
// answers, or nil.
func checkBCacheGeom(g Geom) error {
	switch {
	case g.Ways != 1 || g.Victim != 0:
		return fmt.Errorf("stackdist: B-Cache geometry %+v is not direct-mapped without a victim buffer", g)
	case g.Sets <= 0 || !addr.IsPow2(uint64(g.Sets)):
		return fmt.Errorf("stackdist: frame count %d is not a positive power of two", g.Sets)
	case !BCacheProfiled(g.MF, g.BAS):
		return fmt.Errorf("stackdist: B-Cache MF %d, BAS %d: want powers of two with BAS ≤ %d and MF·BAS ≤ %d",
			g.MF, g.BAS, MaxBAS, maxGroups)
	case g.BAS > g.Sets:
		return fmt.Errorf("stackdist: BAS %d exceeds %d frames", g.BAS, g.Sets)
	}
	return nil
}
