package cachespec

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/rng"
	"bcache/internal/stats"
)

const zooSize, zooLine = 16384, 32

// zooCase is one cache the conformance contract runs on: build makes a
// fresh one, blocks is the capacity it declares.
type zooCase struct {
	name   string
	build  func() (cache.Cache, error)
	blocks int
}

// zoo is every registry family at its example key, then the extra
// shapes the experiments and bcachesim also build — set-associative
// FIFO and Random, 1- to 512-way, and the random-replacement B-Cache —
// and core.Reference, the B-Cache's oracle, which is not a design.
func zoo(t *testing.T) []zooCase {
	t.Helper()
	var keys []string
	for _, e := range table {
		keys = append(keys, cmp.Or(e.example, e.grammar))
	}
	for _, ways := range []int{1, 2, 8, 512} {
		for _, kind := range []cache.PolicyKind{cache.LRU, cache.FIFO, cache.Random} {
			if k := fmt.Sprintf("sa:%dway:%s", ways, kind); k != "sa:8way:lru" {
				keys = append(keys, k)
			}
		}
	}
	keys = append(keys, "bc:mf8:bas8:pol1")
	var out []zooCase
	for _, k := range keys {
		d, err := Parse(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, zooCase{k, func() (cache.Cache, error) { return d.New(zooSize, zooLine) }, d.Blocks(zooSize, zooLine)})
	}
	for _, kind := range []cache.PolicyKind{cache.LRU, cache.Random} {
		cfg := core.Config{SizeBytes: zooSize, LineBytes: zooLine, MF: 8, BAS: 8, Policy: kind, Seed: 3}
		out = append(out, zooCase{"reference-" + kind.String(), func() (cache.Cache, error) { return core.NewReference(cfg) }, zooSize / zooLine})
	}
	return out
}

// zooTrace is a random access stream that hits, misses and conflicts:
// a hot working set smaller than the cache, and far blocks that alias
// onto a few sets.
func zooTrace(n int) []cache.MemAccess {
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

// TestZooConformance runs one contract over every cache in the zoo.
// Table 7 and bcachesim -report count per frame from Result.Frame
// alone, so on every access the frame must be in range and, where a
// probe attaches, be the frame and outcome the probe sees. After the
// trace, the per-frame counts, hits + misses and the access count must
// all agree with Stats, and the misses cannot be fewer than the
// distinct lines touched (each costs a compulsory miss). Every 2048
// accesses, Contains over the lines touched so far must not find more
// resident than the declared capacity. A second build must replay the
// trace through cache.Replay, in chunks of 0, 1, 17, 4096 and the rest
// of the accesses, to identical Stats (the seeds are fixed) and to the
// events the first build's Results give, so a family whose Replay skips
// its own Access fails here. A line just refilled must hit.
func TestZooConformance(t *testing.T) {
	accs := zooTrace(60000)
	for _, z := range zoo(t) {
		t.Run(z.name, func(t *testing.T) {
			c, err := z.build()
			if err != nil {
				t.Fatal(err)
			}
			resultEvents := testCacher(t, c, z.blocks, accs)
			twin, err := z.build()
			if err != nil {
				t.Fatal(err)
			}
			var events, ev []cache.Event
			off := 0
			for _, k := range []int{0, 1, 17, 4096, len(accs)} {
				k = min(k, len(accs)-off)
				ev = ev[:0]
				cache.Replay(twin, accs[off:off+k], &ev)
				for _, e := range ev {
					e.Index += uint32(off)
					events = append(events, e)
				}
				off += k
			}
			if got, want := *twin.Stats(), *c.Stats(); got != want {
				t.Fatalf("a second build replays to %+v, the first to %+v", got, want)
			}
			if !slices.Equal(events, resultEvents) {
				t.Fatalf("a second build replays to %d events, not the %d its first build's Results give", len(events), len(resultEvents))
			}
			const fresh = addr.Addr(0x7654320)
			c.Access(fresh, true)
			if !c.Contains(fresh) || !c.Access(fresh, false).Hit {
				t.Fatal("refill did not stick")
			}
		})
	}
}

// testCacher is the zoo contract on one fresh cache c of the declared
// capacity blocks, over accs. It returns the events of c's Results.
func testCacher(t *testing.T, c cache.Cache, blocks int, accs []cache.MemAccess) []cache.Event {
	t.Helper()
	if c.Name() == "" {
		t.Fatal("empty name")
	}
	p := &accessProbe{}
	probed := cache.AttachProbe(c, p)
	frames := stats.NewFrames(c.Geometry().Frames)
	seen := map[addr.Addr]bool{}
	var lines []addr.Addr // distinct lines, first touch first
	var events []cache.Event
	lineMask := ^addr.Addr(zooLine - 1)
	for i, m := range accs {
		r := c.Access(m.Addr(), m.Write())
		cache.AppendEvent(&events, i, r)
		if r.Frame < 0 || r.Frame >= len(frames.Hits) {
			t.Fatalf("access %d: Result.Frame %d outside [0,%d)", i, r.Frame, len(frames.Hits))
		}
		frames.Count(r)
		if probed && (p.n != i+1 || p.frame != r.Frame || p.hit != r.Hit) {
			t.Fatalf("access %d: Result frame %d hit=%v, probe saw frame %d hit=%v (%d events)",
				i, r.Frame, r.Hit, p.frame, p.hit, p.n)
		}
		if l := m.Addr() & lineMask; !seen[l] {
			seen[l] = true
			lines = append(lines, l)
		}
		if i%2048 == 2047 {
			resident := 0
			for _, l := range lines {
				if c.Contains(l) {
					resident++
				}
			}
			if resident > blocks {
				t.Fatalf("access %d: %d lines resident, capacity %d", i, resident, blocks)
			}
		}
	}
	var hits, misses uint64
	for f := range frames.Hits {
		hits += frames.Hits[f]
		misses += frames.Misses[f]
	}
	st := c.Stats()
	if hits != st.Hits || misses != st.Misses {
		t.Fatalf("Result.Frame counts %d hits, %d misses; Stats has %d, %d", hits, misses, st.Hits, st.Misses)
	}
	if st.Hits+st.Misses != st.Accesses || st.Accesses != uint64(len(accs)) {
		t.Fatalf("Stats %+v over %d accesses", *st, len(accs))
	}
	if st.Misses < uint64(len(lines)) {
		t.Fatalf("%d misses over %d distinct lines", st.Misses, len(lines))
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("trace gave %d hits and %d misses; it must exercise both", hits, misses)
	}
	return events
}

// TestParse pins what the grammar accepts: each accepted key is its
// own Key, with the properties its family declares, and each rejected
// key (unknown, or a non-canonical spelling of a known design) names
// the grammar in its error.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		key             string
		lruWays, victim int
		twin            string
	}{
		{"dm", 1, 0, ""},
		{"sa:8way:lru", 8, 0, "setassoc-replay-vs-access"},
		{"sa:512way:fifo", 0, 0, "setassoc-replay-vs-access"},
		{"sa:2way:random", 0, 0, "setassoc-replay-vs-access"},
		{"victim:16", 0, 16, "victim-buffer-vs-stamp-scan"},
		{"bc:mf8:bas8:pol0", 0, 0, "swar-vs-reference"},
		{"bc:mf16:bas4:pol1", 0, 0, "swar-vs-reference"},
		{"hac:32", 0, 0, ""},
		{"pam4", 0, 0, ""},
	} {
		d, err := Parse(tc.key)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.key, err)
			continue
		}
		if d.Key != tc.key || d.LRUWays != tc.lruWays || d.Victim != tc.victim || d.Twin != tc.twin {
			t.Errorf("Parse(%q) = key %q, LRUWays %d, Victim %d, Twin %q", tc.key, d.Key, d.LRUWays, d.Victim, d.Twin)
		}
	}
	for _, key := range []string{
		"", "nosuch", "bcache", "8way", "victim", "hac", "hac:16", "DM", "dm:", " dm",
		"sa:8way", "sa:8way:mru", "sa:08way:lru", "sa:+8way:lru", "sa:-2way:lru", "sa:8way:LRU", "sa: 8way:lru",
		"sa:8way:lrux", "victim:016", "victim:0x10", "victim:1_6", "victim:16\n", "victim:16:", "bc:mf8:bas8", "bc:mf8:bas8:pol2", "bc:mf08:bas8:pol0",
		"bc:bas8:mf8:pol0", "pam", "skewed", "column:1",
	} {
		if d, err := Parse(key); err == nil {
			t.Errorf("Parse(%q) accepted, as %q", key, d.Key)
		} else if !strings.Contains(err.Error(), Grammar()) {
			t.Errorf("Parse(%q) error %q does not show the grammar", key, err)
		}
	}
	// A key can parse and still name no cache at a given size.
	for _, key := range []string{"sa:3way:lru", "sa:0way:lru", "sa:1024way:lru", "victim:0", "victim:513", "bc:mf8:bas1024:pol0"} {
		if _, err := MustParse(key).New(zooSize, zooLine); err == nil {
			t.Errorf("%s built at %d/%d", key, zooSize, zooLine)
		}
	}
}

// TestTwinsNameOraclePairs: every registry family that declares an
// oracle twin names a pair in the lint manifest, and that pair's fast
// type (a fast method's receiver: SetAssoc for SetAssoc.Replay) is the
// type the family builds.
func TestTwinsNameOraclePairs(t *testing.T) {
	raw, err := os.ReadFile("../lint/oraclepairs.json")
	if err != nil {
		t.Fatal(err)
	}
	var pairs []struct {
		Name string `json:"name"`
		Pkg  string `json:"pkg"`
		Fast string `json:"fast"`
	}
	if err := json.Unmarshal(raw, &pairs); err != nil {
		t.Fatal(err)
	}
	twins := 0
	for _, e := range table {
		if e.twin == "" {
			continue
		}
		twins++
		c, err := MustParse(e.example).New(zooSize, zooLine)
		if err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(c).Elem()
		found := false
		for _, p := range pairs {
			if p.Name != e.twin {
				continue
			}
			found = true
			if fast, _, _ := strings.Cut(p.Fast, "."); p.Pkg != typ.PkgPath() || fast != typ.Name() {
				t.Errorf("%s builds %s.%s; its twin %s pairs %s.%s", e.example, typ.PkgPath(), typ.Name(), p.Name, p.Pkg, p.Fast)
			}
		}
		if !found {
			t.Errorf("%s declares twin %q, which oraclepairs.json does not list", e.example, e.twin)
		}
	}
	if twins == 0 {
		t.Fatal("no family declares a twin")
	}
}

// FuzzParse: no key panics the parser, every accepted key is its own
// Key, and a design built at 16 kB with 32-byte lines either fails or
// has no more frames than the capacity it declares.
func FuzzParse(f *testing.F) {
	for _, e := range table {
		f.Add(e.example)
		f.Add(e.grammar)
	}
	for _, k := range []string{"sa:512way:random", "bc:mf1:bas1:pol1", "victim:513", "sa:08way:lru", "bc:mf8:bas8:pol2", "dm:"} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, key string) {
		d, err := Parse(key)
		if err != nil {
			return
		}
		if d.Key != key {
			t.Fatalf("Parse(%q).Key = %q", key, d.Key)
		}
		c, err := d.New(zooSize, zooLine)
		if err != nil {
			return
		}
		if g, b := c.Geometry().Frames, d.Blocks(zooSize, zooLine); g > b {
			t.Fatalf("%s: %d frames, declared capacity %d", key, g, b)
		}
	})
}
