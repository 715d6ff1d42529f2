package stackdist_test

import (
	"slices"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/stackdist"
	"bcache/internal/trace"
	"bcache/internal/workload"
)

// dataStream returns the data addresses of the first instrs generated
// records of the named benchmark profile.
func dataStream(tb testing.TB, name string, instrs int) []addr.Addr {
	tb.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		tb.Fatal(err)
	}
	var out []addr.Addr
	buf := make([]trace.Record, 4096)
	for done := 0; done < instrs; done += len(buf) {
		g.Fill(buf)
		for i := range buf {
			if buf[i].Kind.IsMem() {
				out = append(out, buf[i].Mem)
			}
		}
	}
	return out
}

// BenchmarkProfile times Profile.Access (ns/op = ns per access) over the
// data streams of the bench probe's profiles, gcc and equake, at the
// paper's 16 kB / 32 B L1: the direct-mapped and 2/4/8-way LRU
// geometries alone ("lru"), and with a victim level answering every
// buffer of up to 64 lines behind the direct-mapped array ("victim").
// Each pass over the stream starts from a fresh profile.
func BenchmarkProfile(b *testing.B) {
	const size, line = 16 * 1024, 32
	frames := size / line
	var lru []stackdist.Geom
	for _, w := range []int{1, 2, 4, 8} {
		lru = append(lru, stackdist.Geom{Sets: frames / w, Ways: w})
	}
	victim := append(slices.Clone(lru), stackdist.Geom{Sets: frames, Ways: 1, Victim: 64})
	for _, name := range []string{"gcc", "equake"} {
		stream := dataStream(b, name, 2_000_000)
		for _, c := range []struct {
			name  string
			geoms []stackdist.Geom
		}{{"lru", lru}, {"victim", victim}} {
			b.Run(name+"/"+c.name, func(b *testing.B) {
				var p *stackdist.Profile
				for i := 0; i < b.N; i++ {
					x := i % len(stream)
					if x == 0 {
						b.StopTimer()
						var err error
						if p, err = stackdist.NewProfile(line, c.geoms); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					p.Access(stream[x])
				}
			})
		}
	}
}

// BenchmarkBCacheProfile times Profile.Replay over 4096-access chunks
// (ns/op = ns per access) of the same data streams at the paper's 16 kB
// / 32 B L1: the B-Cache at MF8/BAS8 alone ("mf8"), and the eight MF ×
// BAS points of Tables 5 and 6 ("table56": MF 2 to 16, BAS 4 and 8).
// Each pass over the stream starts from a fresh profile.
func BenchmarkBCacheProfile(b *testing.B) {
	const size, line, chunk = 16 * 1024, 32, 4096
	frames := size / line
	var table56 []stackdist.Geom
	for _, bas := range []int{4, 8} {
		for _, mf := range []int{2, 4, 8, 16} {
			table56 = append(table56, stackdist.Geom{Sets: frames, Ways: 1, MF: mf, BAS: bas})
		}
	}
	mf8 := []stackdist.Geom{{Sets: frames, Ways: 1, MF: 8, BAS: 8}}
	for _, name := range []string{"gcc", "equake"} {
		stream := dataStream(b, name, 2_000_000)
		for _, c := range []struct {
			name  string
			geoms []stackdist.Geom
		}{{"mf8", mf8}, {"table56", table56}} {
			b.Run(name+"/"+c.name, func(b *testing.B) {
				var p *stackdist.Profile
				for i := 0; i < b.N; i += chunk {
					x := i % (len(stream) - len(stream)%chunk)
					if x == 0 {
						b.StopTimer()
						var err error
						if p, err = stackdist.NewProfile(line, c.geoms); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					p.Replay(stream[x : x+min(chunk, b.N-i)])
				}
			})
		}
	}
}
