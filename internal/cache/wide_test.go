package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/rng"
)

// refSetAssoc is a plain model of SetAssoc: one bool per frame for
// valid and dirty, a linear tag scan, LRU as a per-set list of the ways
// touched since the last reset (most recent first), FIFO as a per-set
// pointer and Random as the per-set Split streams NewSetAssoc draws
// from. It is the reference for the wide sets (64 ways and up, more
// than one mask word), whose only other check is Replay against Access
// on the same engine.
type refSetAssoc struct {
	sets, ways       int
	offBits, idxBits uint
	kind             PolicyKind
	tag              []addr.Addr
	valid, dirty     []bool
	recency          [][]int       // LRU: per set, touched ways, most recent first
	next             []int         // FIFO: per set, the next victim
	src              []*rng.Source // Random: per set, the victim stream
	stats            Stats
}

func newRefSetAssoc(size, line, ways int, kind PolicyKind, seed uint64) *refSetAssoc {
	frames := size / line
	sets := frames / ways
	r := &refSetAssoc{
		sets:    sets,
		ways:    ways,
		offBits: uint(bits.TrailingZeros(uint(line))),
		idxBits: uint(bits.TrailingZeros(uint(sets))),
		kind:    kind,
		tag:     make([]addr.Addr, frames),
		valid:   make([]bool, frames),
		dirty:   make([]bool, frames),
		recency: make([][]int, sets),
		next:    make([]int, sets),
		src:     make([]*rng.Source, sets),
	}
	root := rng.New(seed)
	for s := range r.src {
		r.src[s] = root.Split(uint64(s))
	}
	return r
}

func (r *refSetAssoc) touch(set, way int) {
	if r.kind != LRU {
		return
	}
	order := r.recency[set]
	i := 0
	for i < len(order) && order[i] != way {
		i++
	}
	if i == len(order) {
		order = append(order, way)
	}
	copy(order[1:i+1], order[:i])
	order[0] = way
	r.recency[set] = order
}

// victim picks the way a full set gives up. Under LRU a way never
// touched since the last reset is older than every touched way; the
// lowest-numbered such way goes first.
func (r *refSetAssoc) victim(set int) int {
	switch r.kind {
	case FIFO:
		v := r.next[set]
		r.next[set] = (v + 1) % r.ways
		return v
	case Random:
		return r.src[set].Intn(r.ways)
	}
	touched := make([]bool, r.ways)
	for _, w := range r.recency[set] {
		touched[w] = true
	}
	for w, ok := range touched {
		if !ok {
			return w
		}
	}
	return r.recency[set][len(r.recency[set])-1]
}

func (r *refSetAssoc) access(a addr.Addr, write bool) Result {
	set := int(a>>r.offBits) & (r.sets - 1)
	tag := a >> (r.offBits + r.idxBits)
	base := set * r.ways
	r.stats.Accesses++
	if write {
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}
	for w := 0; w < r.ways; w++ {
		if f := base + w; r.valid[f] && r.tag[f] == tag {
			r.touch(set, w)
			r.dirty[f] = r.dirty[f] || write
			r.stats.Hits++
			return Result{Hit: true, Frame: f}
		}
	}
	r.stats.Misses++
	var res Result
	way := -1
	for w := 0; w < r.ways; w++ {
		if !r.valid[base+w] {
			way = w
			break
		}
	}
	if way < 0 {
		way = r.victim(set)
		f := base + way
		res.Evicted = true
		res.EvictedAddr = r.tag[f]<<(r.offBits+r.idxBits) | addr.Addr(set)<<r.offBits
		res.EvictedDirty = r.dirty[f]
		r.stats.Evictions++
		if r.dirty[f] {
			r.stats.Writebacks++
		}
	}
	f := base + way
	r.tag[f], r.valid[f], r.dirty[f] = tag, true, write
	r.touch(set, way)
	res.Frame = f
	return res
}

func (r *refSetAssoc) reset() {
	clear(r.tag)
	clear(r.valid)
	clear(r.dirty)
	clear(r.recency)
	clear(r.next)
	r.stats = Stats{}
}

func (r *refSetAssoc) tagBits() uint64 { return uint64(addr.Bits) - uint64(r.offBits+r.idxBits) }

// flip and invalidate mirror FlipStateBit and InvalidateSite on the
// fault site numbering of fault.go.
func (r *refSetAssoc) flip(d FaultDomain, bit uint64) {
	switch d {
	case FaultTag:
		r.tag[bit/r.tagBits()] ^= 1 << (bit % r.tagBits())
	case FaultValid:
		r.valid[bit] = !r.valid[bit]
	case FaultDirty:
		r.dirty[bit] = !r.dirty[bit]
	}
}

func (r *refSetAssoc) invalidate(d FaultDomain, bit uint64) {
	f := bit
	if d == FaultTag {
		f = bit / r.tagBits()
	}
	r.valid[f], r.dirty[f] = false, false
}

// assertMatchesRef compares every observable of c with the model:
// counters, tags, and the valid and dirty bit of every frame.
func assertMatchesRef(t *testing.T, c *SetAssoc, r *refSetAssoc) {
	t.Helper()
	if *c.Stats() != r.stats {
		t.Fatalf("stats diverged:\ncache: %+v\nref:   %+v", *c.Stats(), r.stats)
	}
	for f := range r.tag {
		set, way := f/r.ways, f%r.ways
		word := set*c.maskWords + way>>6
		valid := c.valid[word]>>(way&63)&1 != 0
		dirty := c.dirty[word]>>(way&63)&1 != 0
		if c.tags[f] != r.tag[f] || valid != r.valid[f] || dirty != r.dirty[f] {
			t.Fatalf("frame %d: cache (tag %#x valid %v dirty %v), ref (tag %#x valid %v dirty %v)",
				f, c.tags[f], valid, dirty, r.tag[f], r.valid[f], r.dirty[f])
		}
	}
}

// driveBoth runs stream through c and r, writing a quarter of the
// accesses, and fails on the first Result or Contains that differs.
func driveBoth(t *testing.T, c *SetAssoc, r *refSetAssoc, stream []addr.Addr, seed uint64) {
	t.Helper()
	src := rng.New(seed)
	for i, a := range stream {
		write := src.Intn(4) == 0
		if rc, rr := c.Access(a, write), r.access(a, write); rc != rr {
			t.Fatalf("access %d (%#x, write=%v): cache %+v, ref %+v", i, a, write, rc, rr)
		}
		if i%1024 == 0 {
			probe := stream[(i*7)%len(stream)]
			if got := c.Contains(probe); got != r.contains(probe) {
				t.Fatalf("access %d: Contains(%#x) = %v, ref disagrees", i, probe, got)
			}
		}
	}
}

func (r *refSetAssoc) contains(a addr.Addr) bool {
	set := int(a>>r.offBits) & (r.sets - 1)
	tag := a >> (r.offBits + r.idxBits)
	for f := set * r.ways; f < (set+1)*r.ways; f++ {
		if r.valid[f] && r.tag[f] == tag {
			return true
		}
	}
	return false
}

// wideSeed seeds Random's per-set streams on both sides.
const wideSeed = 42

var wideShapes = []struct{ size, ways int }{
	{16 * 1024, 64},
	{16 * 1024, 512}, // fully associative
	{8 * 1024, 256},  // fully associative at 8kB
	{32 * 1024, 128},
}

// TestWideSetMatchesReference: on every policy and on sets of one to
// eight mask words, each Access Result, Contains answer, counter and
// frame equals the plain model's.
func TestWideSetMatchesReference(t *testing.T) {
	for _, kind := range []PolicyKind{LRU, FIFO, Random} {
		for _, g := range wideShapes {
			t.Run(fmt.Sprintf("%v-%dkB-%dway", kind, g.size/1024, g.ways), func(t *testing.T) {
				c, err := NewSetAssoc(g.size, 32, g.ways, kind, rng.New(wideSeed))
				if err != nil {
					t.Fatal(err)
				}
				r := newRefSetAssoc(g.size, 32, g.ways, kind, wideSeed)
				driveBoth(t, c, r, conflictStream(60000, uint64(g.size+g.ways)), 7)
				assertMatchesRef(t, c, r)
			})
		}
	}
}

// TestWideSetFaultMatchesReference: a 512-way set keeps matching the
// model when both take the same soft errors between accesses. A flipped
// valid bit exposes never-touched ways to the LRU victim choice, a
// flipped tag can duplicate a resident line, and an invalidated frame is
// refilled before any victim.
func TestWideSetFaultMatchesReference(t *testing.T) {
	for _, kind := range []PolicyKind{LRU, FIFO, Random} {
		for _, m := range []struct {
			name       string
			d          FaultDomain
			invalidate bool
		}{
			{"flip-tag", FaultTag, false},
			{"flip-valid", FaultValid, false},
			{"flip-dirty", FaultDirty, false},
			{"invalidate", FaultTag, true},
		} {
			t.Run(fmt.Sprintf("%v-%s", kind, m.name), func(t *testing.T) {
				c, err := NewFullyAssoc(16*1024, 32, kind, rng.New(wideSeed))
				if err != nil {
					t.Fatal(err)
				}
				r := newRefSetAssoc(16*1024, 32, 512, kind, wideSeed)
				sites := rng.New(uint64(m.d) + 5)
				stream := conflictStream(40000, 17)
				// Eight faults land before every 4096 accesses, the first
				// eight on the empty cache, so several valid ways can share
				// the never-touched LRU age.
				for at := 0; at < len(stream); at += 4096 {
					for range 8 {
						bit := uint64(sites.Intn(int(c.StateBits(m.d))))
						if m.invalidate {
							c.InvalidateSite(m.d, bit)
							r.invalidate(m.d, bit)
						} else {
							c.FlipStateBit(m.d, bit)
							r.flip(m.d, bit)
						}
					}
					assertMatchesRef(t, c, r)
					driveBoth(t, c, r, stream[at:min(at+4096, len(stream))], uint64(at))
				}
				assertMatchesRef(t, c, r)
			})
		}
	}
}

// TestWideSetResetMatchesReference: after Reset a wide set starts over
// as the model does; only Random's per-set streams run on.
func TestWideSetResetMatchesReference(t *testing.T) {
	for _, kind := range []PolicyKind{LRU, FIFO, Random} {
		t.Run(kind.String(), func(t *testing.T) {
			c, err := NewSetAssoc(32*1024, 32, 128, kind, rng.New(wideSeed))
			if err != nil {
				t.Fatal(err)
			}
			r := newRefSetAssoc(32*1024, 32, 128, kind, wideSeed)
			stream := conflictStream(40000, 3)
			driveBoth(t, c, r, stream, 1)
			c.Reset()
			r.reset()
			assertMatchesRef(t, c, r)
			driveBoth(t, c, r, stream, 2)
			assertMatchesRef(t, c, r)
		})
	}
}

// FuzzWideSetVsReference feeds arbitrary byte strings to a 128-way
// fully-associative cache (two mask words) and the model, as 9-byte
// records: an op byte and a little-endian address. Op 0xff resets,
// 0xfe flips a valid bit, 0xfd flips a tag bit and 0xfc invalidates a
// frame, each at the address modulo the domain's sites; any other op is
// an access, a write when its low bit is set. kind picks the policy.
func FuzzWideSetVsReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte("\xff\xff\xff\xff\x00\x00\x00\x00repeat-me-repeat-me\xfe\x07\x00\x00\x00\x00\x00\x00\x00"), uint8(1))
	seed := make([]byte, 0, 9*256)
	src := rng.New(99)
	for i := 0; i < 256; i++ {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(src.Intn(1<<14)))
		seed = append(seed, byte(i), w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
	}
	f.Add(seed, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, kind uint8) {
		policy := []PolicyKind{LRU, FIFO, Random}[kind%3]
		c, err := NewFullyAssoc(4096, 32, policy, rng.New(wideSeed))
		if err != nil {
			t.Fatal(err)
		}
		r := newRefSetAssoc(4096, 32, 128, policy, wideSeed)
		for i := 0; i+9 <= len(data); i += 9 {
			op := data[i]
			a := addr.Addr(binary.LittleEndian.Uint64(data[i+1:i+9])) & addr.Max
			switch op {
			case 0xff:
				c.Reset()
				r.reset()
			case 0xfe:
				bit := uint64(a) % c.StateBits(FaultValid)
				c.FlipStateBit(FaultValid, bit)
				r.flip(FaultValid, bit)
			case 0xfd:
				bit := uint64(a) % c.StateBits(FaultTag)
				c.FlipStateBit(FaultTag, bit)
				r.flip(FaultTag, bit)
			case 0xfc:
				bit := uint64(a) % c.StateBits(FaultValid)
				c.InvalidateSite(FaultValid, bit)
				r.invalidate(FaultValid, bit)
			default:
				write := op&1 != 0
				if rc, rr := c.Access(a, write), r.access(a, write); rc != rr {
					t.Fatalf("record %d (%#x, write=%v): cache %+v, ref %+v", i/9, a, write, rc, rr)
				}
			}
		}
		assertMatchesRef(t, c, r)
	})
}
