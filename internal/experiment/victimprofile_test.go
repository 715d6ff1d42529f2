package experiment

import (
	"context"
	"fmt"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/stackdist"
	"bcache/internal/workload"
)

// victimDepths are the buffer sizes the victim differential checks: one
// profile answers all of them, each replay one.
var victimDepths = []int{1, 2, 4, 8, 16, 32, 64}

// victimShape is the profile of a direct-mapped L1 of opts's geometry
// behind a buffer of every size in depths.
func victimShape(opts Opts, s side, depths []int) lruShape {
	frames := opts.L1Size / opts.LineBytes
	sh := lruShape{side: s, line: opts.LineBytes}
	for _, v := range depths {
		sh.geoms = append(sh.geoms, stackdist.Geom{Sets: frames, Ways: 1, Victim: v})
	}
	return sh
}

// TestVictimProfileMatchesReplay is the differential behind the victim
// keys a stack-distance unit commits: for every profile, on the D and I
// sides, at 8, 16 and 32 kB, the profile's answer for each buffer size
// (misses, accesses and buffer hits) must equal a replayEngine over
// victimSpec of that size, the victim.Cache oracle.
func TestVictimProfileMatchesReplay(t *testing.T) {
	opts := tinyOpts()
	type twins struct {
		name    string
		prof    engine[[]UnitResult]
		replays []engine[[]UnitResult]
	}
	var buffered [2]uint64 // buffer hits of the shallowest and deepest buffer
	for _, p := range workload.All() {
		var fs []*feeder
		var ts []*twins
		add := func(reads stream, feed func(*chunk)) {
			fs = append(fs, &feeder{unit: len(fs), reads: reads, feed: feed})
		}
		for _, size := range []int{8 * 1024, 16 * 1024, 32 * 1024} {
			o := opts
			o.L1Size = size
			for _, s := range []side{dSide, iSide} {
				tw := &twins{name: fmt.Sprintf("%s/%dkB/side%d", p.Name, size/1024, s)}
				var err error
				if tw.prof, err = profileEngine(victimShape(o, s, victimDepths)); err != nil {
					t.Fatal(err)
				}
				add(s.stream(o.LineBytes), tw.prof.feed)
				for _, v := range victimDepths {
					r, err := replayEngine(o, s, victimSpec(v))
					if err != nil {
						t.Fatal(err)
					}
					tw.replays = append(tw.replays, r)
					add(s.stream(o.LineBytes), r.feed)
				}
				ts = append(ts, tw)
			}
		}
		if _, _, err := runPass(context.Background(), p, opts.Instructions, fs, nil); err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			if f.err != nil {
				t.Fatalf("%s: %v", p.Name, f.err)
			}
		}
		for _, tw := range ts {
			got, err := tw.prof.results()
			if err != nil {
				t.Fatal(err)
			}
			for x, r := range tw.replays {
				want, err := r.results()
				if err != nil {
					t.Fatal(err)
				}
				if got[x] != want[0] {
					t.Errorf("%s victim%d: profile %+v, replay %+v", tw.name, victimDepths[x], got[x], want[0])
				}
				if want[0].Accesses == 0 {
					t.Errorf("%s victim%d: no accesses", tw.name, victimDepths[x])
				}
			}
			buffered[0] += got[0].Extra
			buffered[1] += got[len(got)-1].Extra
		}
	}
	if buffered[0] == 0 || buffered[1] <= buffered[0] {
		t.Errorf("vacuous comparison: %d buffer hits at 1 entry, %d at 64", buffered[0], buffered[1])
	}
}

// FuzzVictimProfileVsReplay drives short line streams through one
// profile answering buffers of 1 to 4 lines and through a victim.Cache
// replay of each size, behind an 8-set direct-mapped L1. Byte b names
// line b&0x7f (set b&7, one of 16 tags) and writes when b&0x80 is set.
// The seeds reach cold sets, whose first miss displaces nothing, and
// lines that return after the 4-deep stack dropped them.
func FuzzVictimProfileVsReplay(f *testing.F) {
	// Set 0's tags 0..6: the seventh miss has pushed six lines, so lines
	// 0 and 8 left the 4-deep stack and then return; set 1 stays cold
	// until its first access.
	f.Add([]byte{0, 8, 16, 24, 32, 40, 48, 0, 8, 1, 16, 9, 1})
	// Cold frames push nothing: line 0 misses both the array and the
	// buffer, though two cold sets (0 and 1) missed before it.
	f.Add([]byte{8, 1, 0})
	// Ping-pong on one set: every miss after the first is a buffer hit.
	f.Add([]byte{0, 8, 0, 8, 0, 8, 0x80, 8})
	// Every set cold once, then conflicts spread over the sets.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 17, 26, 35, 0, 1, 2, 3, 44, 53, 62, 71, 8, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		opts := Opts{L1Size: 256, LineBytes: 32}
		depths := []int{1, 2, 3, 4}
		ch := &chunk{}
		for _, b := range raw {
			ch.data = append(ch.data, cache.NewMemAccess(addr.Addr(b&0x7f)*32, b&0x80 != 0))
		}
		prof, err := profileEngine(victimShape(opts, dSide, depths))
		if err != nil {
			t.Fatal(err)
		}
		prof.feed(ch)
		got, err := prof.results()
		if err != nil {
			t.Fatal(err)
		}
		for x, v := range depths {
			r, err := replayEngine(opts, dSide, victimSpec(v))
			if err != nil {
				t.Fatal(err)
			}
			r.feed(ch)
			want, err := r.results()
			if err != nil {
				t.Fatal(err)
			}
			if got[x] != want[0] {
				t.Fatalf("victim%d on %v: profile %+v, replay %+v", v, raw, got[x], want[0])
			}
		}
	})
}
