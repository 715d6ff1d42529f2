package experiment

import (
	"context"
	"testing"
)

// altKeys are the related designs other than the B-Cache and the
// set-associative caches: all but skewed2 and hac:32 spend cycles
// beyond the first probe on some hits.
var altKeys = []string{"column", "skewed2", "psa", "agac", "pam4", "hac:32", "victim:16"}

// TestExtraMatchesAccessLoop is the oracle of UnitResult.Extra: for
// each design of altKeys on three profiles, the hits (accesses less
// misses) and extra hit cycles a sweep commits must equal those of a
// loop that calls Access once per access and reads each Result. The
// sweep answers victim16 from the stack-distance profile, and from a
// replay under DisableStackDist; the other designs always replay.
func TestExtraMatchesAccessLoop(t *testing.T) {
	opts := tinyOpts()
	profiles := gridProfiles(t)
	specs := make([]Spec, len(altKeys))
	for x, key := range altKeys {
		specs[x] = spec(key, 0, key)
	}

	type counts struct{ hits, extra uint64 }
	want := map[string][]counts{} // per profile, one per spec
	for _, p := range profiles {
		refs := make([]counts, len(specs))
		var fs []*feeder
		for x, s := range specs {
			c, err := s.New(opts.L1Size, opts.LineBytes)
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, &feeder{unit: x, reads: dataStream, feed: func(ch *chunk) {
				for _, m := range ch.data {
					if r := c.Access(m.Addr(), m.Write()); r.Hit {
						refs[x].hits++
						refs[x].extra += uint64(r.ExtraLatency)
					}
				}
			}})
		}
		if _, _, err := runPass(context.Background(), p, opts.Instructions, fs, nil); err != nil {
			t.Fatal(err)
		}
		want[p.Name] = refs
	}

	for _, replay := range []bool{false, true} {
		o := opts
		o.DisableStackDist = replay
		sw := sweep{o, profiles, specs, dSide}
		res, err := runUnits(o, sw.units())
		if err != nil {
			t.Fatal(err)
		}
		extra := make([]uint64, len(specs))
		for _, p := range profiles {
			for x, s := range specs {
				u, err := result[UnitResult](res, sw.key(s, 0, p.Name))
				if err != nil {
					t.Fatal(err)
				}
				got := counts{u.Accesses - u.Misses, u.Extra}
				if w := want[p.Name][x]; got != w {
					t.Errorf("%s/%s (DisableStackDist %v): sweep hits %d extra %d, Access loop hits %d extra %d",
						p.Name, s.Key, replay, got.hits, got.extra, w.hits, w.extra)
				}
				extra[x] += u.Extra
			}
		}
		for x, s := range specs {
			if single := s.Key == "skewed2" || s.Key == "hac:32"; (extra[x] == 0) != single {
				t.Errorf("%s (DisableStackDist %v): %d extra hit cycles on %d profiles", s.Key, replay, extra[x], len(profiles))
			}
		}
	}
}
