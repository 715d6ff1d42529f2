package stackdist

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/rng"
)

// groupCounts are the counters an LRU B-Cache commits over a stream.
type groupCounts struct{ misses, pdHit, pdMiss uint64 }

// groupModel is the plain model of an LRU B-Cache of frames frames at
// mf and bas the B-Cache level is held to: each row keeps its
// programmed groups as a move-to-front list of at most bas group ids,
// and each programmed group the last line it was accessed with. A
// line's row is its low log2(frames/bas) bits and its group the line
// modulo frames·mf.
func groupModel(lines []addr.Addr, frames, mf, bas int) groupCounts {
	rows := frames / bas
	p := addr.Addr(frames * mf)
	lists := make([][]addr.Addr, rows)
	last := map[addr.Addr]addr.Addr{}
	var c groupCounts
	for _, line := range lines {
		group := line % p
		row := int(group) % rows
		list := lists[row]
		at := -1
		for i, g := range list {
			if g == group {
				at = i
				break
			}
		}
		switch {
		case at < 0:
			c.misses++
			c.pdMiss++
			list = append([]addr.Addr{group}, list...)
			if len(list) > bas {
				delete(last, list[bas])
				list = list[:bas]
			}
		default:
			if last[group] != line {
				c.misses++
				c.pdHit++
			}
			copy(list[1:at+1], list[:at])
			list[0] = group
		}
		last[group] = line
		lists[row] = list
	}
	return c
}

// bcacheGeoms are every B-Cache geometry a profile answers at frames:
// every BAS up to MaxBAS and frames, and every MF up to 128/BAS.
func bcacheGeoms(frames int) []Geom {
	var geoms []Geom
	for bas := 1; bas <= min(MaxBAS, frames); bas *= 2 {
		for mf := 1; mf*bas <= maxGroups; mf *= 2 {
			geoms = append(geoms, Geom{Sets: frames, Ways: 1, MF: mf, BAS: bas})
		}
	}
	return geoms
}

// conflictLines mixes a hot set, strided conflicts on one frame and a
// wide cold sweep: the strides are multiples of every frames·MF up to
// 2^12 lines, so groups keep both hitting and missing during misses.
func conflictLines(n int, seed uint64) []addr.Addr {
	src := rng.New(seed)
	out := make([]addr.Addr, n)
	for i := range out {
		switch src.Intn(4) {
		case 0:
			out[i] = addr.Addr(src.Intn(64))
		case 1:
			out[i] = addr.Addr(src.Intn(6)<<12 | src.Intn(4)*7)
		case 2:
			out[i] = addr.Addr(src.Intn(24) << src.Intn(10))
		default:
			out[i] = addr.Addr(src.Intn(1 << 20))
		}
	}
	return out
}

// chunkLen returns a chunk length from src as the replay tests cut
// passes: mostly short, often 0 or 1, sometimes a whole pass chunk.
func chunkLen(src *rng.Source) int {
	switch src.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 4096
	default:
		return src.Intn(64)
	}
}

// checkGroupModel profiles lines (line size 1, so addresses are lines)
// at every B-Cache geometry of frames, fed in chunks of next's lengths
// (a negative length feeds one Access at a time), and compares each
// geometry's counters with the group model's.
func checkGroupModel(t *testing.T, lines []addr.Addr, frames int, next func() int) {
	t.Helper()
	geoms := bcacheGeoms(frames)
	p, err := NewProfile(1, geoms)
	if err != nil {
		t.Fatal(err)
	}
	for rest := lines; len(rest) > 0; {
		n := next()
		if n < 0 {
			p.Access(rest[0])
			rest = rest[1:]
			continue
		}
		n = min(n, len(rest))
		p.Replay(rest[:n])
		rest = rest[n:]
	}
	if p.Accesses() != uint64(len(lines)) {
		t.Fatalf("%d accesses recorded, want %d", p.Accesses(), len(lines))
	}
	for _, g := range geoms {
		var got groupCounts
		got.misses, got.pdHit, got.pdMiss, err = p.BCacheMisses(g.Sets, g.MF, g.BAS)
		if err != nil {
			t.Fatal(err)
		}
		if want := groupModel(lines, g.Sets, g.MF, g.BAS); got != want {
			t.Fatalf("%d frames, MF %d, BAS %d over %d lines: profile %+v, group model %+v",
				g.Sets, g.MF, g.BAS, len(lines), got, want)
		}
	}
}

// TestBCacheProfileMatchesGroupModel holds the B-Cache level to the
// group model at every MF and every BAS ≤ MaxBAS, on 8, 64 and 512
// frames, over conflict-heavy streams cut into the replay tests' chunk
// shapes with single Accesses mixed in.
func TestBCacheProfileMatchesGroupModel(t *testing.T) {
	for _, frames := range []int{8, 64, 512} {
		for seed := uint64(1); seed <= 3; seed++ {
			src := rng.New(seed * 977)
			checkGroupModel(t, conflictLines(20_000, seed), frames, func() int {
				if src.Intn(16) == 0 {
					return -1
				}
				return chunkLen(src)
			})
		}
	}
}

// FuzzBCacheProfileVsGroupModel: for any line stream and chunk split,
// the B-Cache level counts what the group model counts at every MF and
// BAS on 8 frames. Byte 0xFF cuts a chunk and 0xFE feeds the next line
// through Access; any other byte b is line b·37 mod 2^12 pushed left
// by b&3 bits, so lines share groups at every MF up to 128.
func FuzzBCacheProfileVsGroupModel(f *testing.F) {
	f.Add([]byte{0, 8, 16, 0, 8, 0xFF, 16, 24, 0})
	f.Add([]byte{1, 2, 3, 0xFE, 1, 0xFF, 0xFF, 2, 3, 4, 5})
	f.Add([]byte("a PD hit during a miss refills its frame"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			return
		}
		var lines []addr.Addr
		var cuts []int // chunk lengths; -1 is one Access
		n, single := 0, false
		for _, b := range raw {
			switch b {
			case 0xFF:
				cuts, n = append(cuts, n), 0
			case 0xFE:
				single = true
			default:
				lines = append(lines, addr.Addr(int(b)*37%4096)<<(b&3))
				if single {
					cuts, n, single = append(cuts, n, -1), 0, false
				} else {
					n++
				}
			}
		}
		checkGroupModel(t, lines, 8, func() int {
			if len(cuts) == 0 {
				return 1 << 20
			}
			c := cuts[0]
			cuts = cuts[1:]
			return c
		})
	})
}

// TestBCacheProfileGeoms: a B-Cache geometry must be direct-mapped,
// without a victim buffer, at most MaxBAS wide and 128 groups per row,
// and BAS must fit its frames. An unrequested one does not answer, nor
// one whose lines outgrew the 32-bit tags.
func TestBCacheProfileGeoms(t *testing.T) {
	for _, g := range []Geom{
		{Sets: 64, Ways: 2, MF: 8, BAS: 8},
		{Sets: 64, Ways: 1, Victim: 4, MF: 8, BAS: 8},
		{Sets: 64, Ways: 1, MF: 8, BAS: 16},
		{Sets: 64, Ways: 1, MF: 32, BAS: 8},
		{Sets: 64, Ways: 1, MF: 3, BAS: 8},
		{Sets: 64, Ways: 1, MF: 8},
		{Sets: 4, Ways: 1, MF: 8, BAS: 8},
		{Sets: 48, Ways: 1, MF: 2, BAS: 2},
	} {
		if _, err := NewProfile(32, []Geom{g}); err == nil {
			t.Errorf("NewProfile accepted %+v", g)
		}
	}
	p, err := NewProfile(1, []Geom{{Sets: 8, Ways: 1, MF: 2, BAS: 4}})
	if err != nil {
		t.Fatal(err)
	}
	p.Replay([]addr.Addr{0, 16, 0})
	// Lines 0 and 16 share group 0 of row 0: the first access programs
	// it, and each later one finds it programmed with the other line.
	if m, h, pm, err := p.BCacheMisses(8, 2, 4); err != nil || m != 3 || h != 2 || pm != 1 {
		t.Errorf("MF2/BAS4: %d misses, %d PD hits, %d PD misses (%v), want 3, 2 and 1", m, h, pm, err)
	}
	for _, q := range [][3]int{{8, 2, 2}, {8, 4, 4}, {16, 1, 4}} {
		if _, _, _, err := p.BCacheMisses(q[0], q[1], q[2]); err == nil {
			t.Errorf("unrequested B-Cache %v answered", q)
		}
	}
	if _, err := p.Misses(8, 1); err == nil {
		t.Error("a B-Cache geometry answered as an LRU one")
	}
	p.Access(addr.Addr(1) << 40)
	if _, _, _, err := p.BCacheMisses(8, 2, 4); err == nil {
		t.Error("a line past the 32-bit tags answered")
	}
}
