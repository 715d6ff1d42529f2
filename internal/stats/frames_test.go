package stats

import (
	"fmt"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/altcache"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/rng"
	"bcache/internal/victim"
)

// zooCache is one model of the zoo, named for its subtest.
type zooCache struct {
	name string
	c    cache.Cache
}

// frameZoo builds one of every replay model at 16 kB with 32 B lines,
// with the parameters the experiments use.
func frameZoo(t *testing.T) []zooCache {
	t.Helper()
	const size, line = 16384, 32
	var zoo []zooCache
	add := func(name string, c cache.Cache, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		zoo = append(zoo, zooCache{name, c})
	}
	for _, ways := range []int{1, 2, 8, 512} {
		for _, kind := range []cache.PolicyKind{cache.LRU, cache.FIFO, cache.Random} {
			c, err := cache.NewSetAssoc(size, line, ways, kind, rng.New(7))
			add(fmt.Sprintf("setassoc-%dway-%s", ways, kind), c, err)
		}
	}
	for _, kind := range []cache.PolicyKind{cache.LRU, cache.Random} {
		cfg := core.Config{SizeBytes: size, LineBytes: line, MF: 8, BAS: 8, Policy: kind, Seed: 3}
		bc, err := core.New(cfg)
		add("bcache-"+kind.String(), bc, err)
		ref, err := core.NewReference(cfg)
		add("reference-"+kind.String(), ref, err)
	}
	vc, err := victim.New(size, line, 16)
	add("victim16", vc, err)
	col, err := altcache.NewColumn(size, line)
	add("column", col, err)
	sk, err := altcache.NewSkewed(size, line, rng.New(1))
	add("skewed", sk, err)
	psa, err := altcache.NewPSA(size, line, 10)
	add("psa", psa, err)
	agac, err := altcache.NewAGAC(size, line, 32, 4096)
	add("agac", agac, err)
	pam, err := altcache.NewPAM(size, line, 4, 5)
	add("pam", pam, err)
	hac, err := altcache.NewHAC(size, line)
	add("hac", hac, err)
	wh, err := altcache.NewWayHalt(size, line, 4, 4)
	add("wayhalt", wh, err)
	return zoo
}

// frameTrace is a random access stream that hits, misses and conflicts:
// a hot working set smaller than the cache, and far blocks that alias
// onto a few sets.
func frameTrace(n int) []cache.MemAccess {
	src := rng.New(29)
	out := make([]cache.MemAccess, n)
	for i := range out {
		var a addr.Addr
		switch src.Intn(4) {
		case 0:
			a = addr.Addr(src.Intn(64)) * 65536 // far blocks, few sets
		case 1:
			a = addr.Addr(src.Intn(1 << 20)) // anywhere in 1 MiB
		default:
			a = addr.Addr(src.Intn(256)) * 32 // hot lines
		}
		out[i] = cache.NewMemAccess(a, src.Intn(3) == 0)
	}
	return out
}

// accessProbe is a cache.Probe that keeps the last ObserveAccess and
// how many it has seen.
type accessProbe struct {
	frame int
	hit   bool
	n     int
}

func (p *accessProbe) ObserveAccess(frame int, hit, _ bool) {
	p.frame, p.hit = frame, hit
	p.n++
}
func (*accessProbe) ObservePD(bool)                                   {}
func (*accessProbe) ObserveReprogram()                                {}
func (*accessProbe) ObserveEvict(bool)                                {}
func (*accessProbe) ObserveWriteback()                                {}
func (*accessProbe) ObserveFault(cache.FaultDomain, cache.FaultClass) {}
func (*accessProbe) ObserveScrub(int, bool)                           {}

// TestResultFrameMatchesProbe pins the frame each model reports in
// Result.Frame, access by access, on every replay model: Table 7 and
// bcachesim -report count per frame from Result.Frame alone. On a
// probe-capable model the frame and outcome must be the ones the probe
// sees through ObserveAccess; on every model the frame must be in range
// and the per-frame counts must add up to the cache's own totals.
func TestResultFrameMatchesProbe(t *testing.T) {
	accs := frameTrace(60000)
	for _, z := range frameZoo(t) {
		c := z.c
		t.Run(z.name, func(t *testing.T) {
			p := &accessProbe{}
			probed := cache.AttachProbe(c, p)
			frames := NewFrames(c.Geometry().Frames)
			for i, m := range accs {
				r := c.Access(m.Addr(), m.Write())
				if r.Frame < 0 || r.Frame >= len(frames.Hits) {
					t.Fatalf("access %d: Result.Frame %d outside [0,%d)", i, r.Frame, len(frames.Hits))
				}
				frames.Count(r)
				if probed && (p.n != i+1 || p.frame != r.Frame || p.hit != r.Hit) {
					t.Fatalf("access %d: Result frame %d hit=%v, probe saw frame %d hit=%v (%d events)",
						i, r.Frame, r.Hit, p.frame, p.hit, p.n)
				}
			}
			var hits, misses uint64
			for f := range frames.Hits {
				hits += frames.Hits[f]
				misses += frames.Misses[f]
			}
			if st := c.Stats(); hits != st.Hits || misses != st.Misses {
				t.Fatalf("Result.Frame counts %d hits, %d misses; Stats has %d, %d", hits, misses, st.Hits, st.Misses)
			}
			if hits == 0 || misses == 0 {
				t.Fatalf("trace gave %d hits and %d misses; it must exercise both", hits, misses)
			}
		})
	}
}
