package experiment

import (
	"context"
	"testing"

	"bcache/internal/stackdist"
	"bcache/internal/workload"
)

// TestBCacheProfileBounds checks the bounds an LRU B-Cache's counters
// obey without any cache simulated, on the D-side trace of every
// profile at tinyOpts, for the profile's answers at 16 kB (every MF
// and BAS it answers) and at 64 rows (BAS 1 to 8 over 64·BAS frames):
//
//   - a B-Cache of F frames at MF hits only where a direct-mapped cache
//     of F·MF lines hits, so it misses at least as often;
//   - a PD hit during a miss is a direct-mapped miss, so there are at
//     most that many;
//   - at fixed rows R and PD groups per row G = BAS·MF, a wider BAS
//     keeps every group a narrower one keeps (LRU inclusion over the
//     row's groups), so misses do not rise with BAS.
func TestBCacheProfileBounds(t *testing.T) {
	opts := tinyOpts()
	frames := opts.L1Size / opts.LineBytes
	const rows = 64
	var geoms []stackdist.Geom
	seen := map[stackdist.Geom]bool{}
	add := func(g stackdist.Geom) {
		if !seen[g] {
			seen[g] = true
			geoms = append(geoms, g)
		}
	}
	for bas := 1; bas <= stackdist.MaxBAS; bas *= 2 {
		for mf := 1; stackdist.BCacheProfiled(mf, bas); mf *= 2 {
			add(stackdist.Geom{Sets: frames, Ways: 1, MF: mf, BAS: bas})
			add(stackdist.Geom{Sets: rows * bas, Ways: 1, MF: mf, BAS: bas})
		}
	}
	bcaches := len(geoms)
	for _, g := range geoms[:bcaches] {
		add(stackdist.Geom{Sets: g.Sets * g.MF, Ways: 1})
	}
	var pdHits uint64
	for _, p := range workload.All() {
		e, err := profileEngine(lruShape{side: dSide, line: opts.LineBytes, geoms: geoms})
		if err != nil {
			t.Fatal(err)
		}
		f := &feeder{reads: dataStream, feed: e.feed}
		if _, _, err := runPass(context.Background(), p, opts.Instructions, []*feeder{f}, nil); err != nil || f.err != nil {
			t.Fatalf("%s: %v %v", p.Name, err, f.err)
		}
		res, err := e.results()
		if err != nil {
			t.Fatal(err)
		}
		at := map[stackdist.Geom]UnitResult{}
		for x, g := range geoms {
			at[g] = res[x]
		}
		for _, g := range geoms[:bcaches] {
			u := at[g]
			dm := at[stackdist.Geom{Sets: g.Sets * g.MF, Ways: 1}].Misses
			if u.Misses < dm || u.PDHit > dm || u.PDHit+u.PDMiss != u.Misses {
				t.Errorf("%s: %d frames MF%d/BAS%d: %d misses (%d PD hits, %d PD misses) against %d misses of %d direct-mapped lines",
					p.Name, g.Sets, g.MF, g.BAS, u.Misses, u.PDHit, u.PDMiss, dm, g.Sets*g.MF)
			}
			pdHits += u.PDHit
			if g.Sets != rows*g.BAS || g.BAS == 1 {
				continue
			}
			// The same R and G at half the BAS: twice the MF.
			narrow := at[stackdist.Geom{Sets: rows * g.BAS / 2, Ways: 1, MF: g.MF * 2, BAS: g.BAS / 2}]
			if u.Misses > narrow.Misses {
				t.Errorf("%s: %d rows, %d groups per row: BAS%d misses %d, BAS%d %d",
					p.Name, rows, g.BAS*g.MF, g.BAS, u.Misses, g.BAS/2, narrow.Misses)
			}
		}
	}
	if pdHits == 0 {
		t.Error("vacuous bounds: no PD hit during a miss on any trace")
	}
}
