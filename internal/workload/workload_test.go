package workload

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/rng"
	"bcache/internal/trace"
)

func TestAllProfiles(t *testing.T) {
	all := All()
	if len(all) != 26 {
		t.Fatalf("All() returned %d profiles, want 26", len(all))
	}
	var cint, cfp int
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		switch p.Suite {
		case "CINT2K":
			cint++
		case "CFP2K":
			cfp++
		}
	}
	if cint != 12 || cfp != 14 {
		t.Fatalf("suite split = %d CINT / %d CFP, want 12/14", cint, cfp)
	}
	// All() order: CINT2K block first, alphabetical within suites.
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Suite == b.Suite && a.Name >= b.Name {
			t.Errorf("All() order broken at %s >= %s", a.Name, b.Name)
		}
		if a.Suite == "CFP2K" && b.Suite == "CINT2K" {
			t.Error("All(): CFP2K before CINT2K")
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("equake")
	if err != nil || p.Name != "equake" {
		t.Fatalf("ByName(equake) = %v, %v", p, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded")
	}
}

func TestReportedICacheNames(t *testing.T) {
	if len(ReportedICache) != 15 {
		t.Fatalf("ReportedICache has %d entries, want 15 (paper Fig. 5)", len(ReportedICache))
	}
	for _, n := range ReportedICache {
		if _, err := ByName(n); err != nil {
			t.Errorf("reported benchmark %q is not a profile", n)
		}
	}
	if IsReportedICache("art") {
		t.Error("art should be below the 0.01%% I$ threshold")
	}
	if !IsReportedICache("equake") {
		t.Error("equake should be reported")
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	g1, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := New(p)
	for i := 0; i < 20000; i++ {
		r1, _ := g1.Next()
		r2, _ := g2.Next()
		if r1 != r2 {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, r1, r2)
		}
	}
}

func TestSeedsMatter(t *testing.T) {
	p := *mustProfile(t, "gzip")
	p2 := p
	p2.Seed++
	g1, _ := New(&p)
	g2, _ := New(&p2)
	diff := 0
	for i := 0; i < 1000; i++ {
		r1, _ := g1.Next()
		r2, _ := g2.Next()
		if r1 != r2 {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical streams")
	}
}

func mustProfile(t testing.TB, name string) *Profile {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRecordsValid(t *testing.T) {
	for _, p := range All() {
		g, err := New(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i := 0; i < 5000; i++ {
			r, ok := g.Next()
			if !ok {
				t.Fatalf("%s: stream ended", p.Name)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s record %d: %v", p.Name, i, err)
			}
		}
	}
}

func TestAddressRanges(t *testing.T) {
	for _, p := range All() {
		g, _ := New(p)
		// Odd-line segment spacing can stretch the layout slightly past
		// the nominal footprint, and a long basic block can run past its
		// segment base; allow that slack.
		hi := CodeBase + addr.Addr(p.Code.Footprint+p.Code.Segments*32+16*1024)
		for i := 0; i < 20000; i++ {
			r, _ := g.Next()
			if r.PC < CodeBase || r.PC >= hi {
				t.Fatalf("%s: PC %#x outside code range [%#x,%#x)", p.Name, r.PC, CodeBase, hi)
			}
			if r.Kind.IsMem() {
				if r.Mem < DataBase {
					t.Fatalf("%s: data address %#x below DataBase", p.Name, r.Mem)
				}
				if r.Mem > addr.Max {
					t.Fatalf("%s: data address %#x exceeds 32 bits", p.Name, r.Mem)
				}
			}
		}
	}
}

func TestMixFractions(t *testing.T) {
	for _, p := range All() {
		g, _ := New(p)
		const n = 100000
		var mem, branch int
		for i := 0; i < n; i++ {
			r, _ := g.Next()
			if r.Kind.IsMem() {
				mem++
			}
			if r.Kind == trace.Branch {
				branch++
			}
		}
		memFrac := float64(mem) / n
		branchFrac := float64(branch) / n
		wantBranch := 1 / p.Code.SegLen
		// Mem fraction applies to non-branch instructions only.
		wantMem := p.Mix.Mem * (1 - wantBranch)
		if d := memFrac - wantMem; d < -0.025 || d > 0.025 {
			t.Errorf("%s: mem fraction %.3f, want ≈%.3f", p.Name, memFrac, wantMem)
		}
		if d := branchFrac - wantBranch; d < -0.03 || d > 0.03 {
			t.Errorf("%s: branch fraction %.3f, want ≈%.3f", p.Name, branchFrac, wantBranch)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	good := *mustProfile(t, "art")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Suite = "SPECjbb" },
		func(p *Profile) { p.Code.Segments = 0 },
		func(p *Profile) { p.Code.HotSegs = p.Code.Segments + 1 },
		func(p *Profile) { p.Mix.Mem = 1.5 },
		func(p *Profile) { p.Regions = nil },
		func(p *Profile) { p.Regions[0].Weight = 0 },
		func(p *Profile) { p.DepDist = 0 },
	}
	for i, mutate := range cases {
		p := good
		p.Regions = append([]Region(nil), good.Regions...)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeneratorRejectsInvalid(t *testing.T) {
	p := *mustProfile(t, "art")
	p.Regions = nil
	if _, err := New(&p); err == nil {
		t.Fatal("New accepted invalid profile")
	}
}

func TestWalkerPatterns(t *testing.T) {
	// Each pattern in isolation produces the addresses its contract says.
	t.Run("sequential", func(t *testing.T) {
		r := &Region{Kind: Sequential, Base: 0x1000, Size: 64, Weight: 1}
		w, err := newRegionWalker(r, newTestSrc())
		if err != nil {
			t.Fatal(err)
		}
		var got []addr.Addr
		for i := 0; i < 10; i++ {
			a := w.next(newTestSrc())
			got = append(got, a)
		}
		// 64-byte region, 8-byte grain: wraps after 8 accesses.
		if got[0] != 0x1000 || got[1] != 0x1008 || got[8] != 0x1000 {
			t.Fatalf("sequential walk = %#v", got)
		}
	})
	t.Run("strided", func(t *testing.T) {
		r := &Region{Kind: Strided, Base: 0x2000, Size: 300, Stride: 100, Weight: 1}
		w, _ := newRegionWalker(r, newTestSrc())
		a0 := w.next(newTestSrc())
		a1 := w.next(newTestSrc())
		a3 := func() addr.Addr { w.next(newTestSrc()); return w.next(newTestSrc()) }()
		if a0 != 0x2000 || a1 != 0x2064 || a3 != 0x2000 {
			t.Fatalf("strided walk = %#x %#x %#x", a0, a1, a3)
		}
	})
	t.Run("chase-covers-region", func(t *testing.T) {
		r := &Region{Kind: PointerChase, Base: 0, Size: 16 * chaseGrain, Weight: 1}
		w, _ := newRegionWalker(r, newTestSrc())
		seen := map[addr.Addr]bool{}
		for i := 0; i < 16*4; i++ {
			a := w.next(newTestSrc())
			seen[a] = true
		}
		// A permutation cycle visits many distinct lines.
		if len(seen) < 8 {
			t.Fatalf("pointer chase visited only %d distinct lines", len(seen))
		}
	})
	t.Run("alias-same-set", func(t *testing.T) {
		r := &Region{Kind: ConflictAlias, Base: 0x100000, AliasStride: 32 * kB, Degree: 4, Weight: 1}
		w, _ := newRegionWalker(r, newTestSrc())
		const setMask = (16*kB - 1) &^ 31
		first := w.next(newTestSrc())
		for i := 1; i < 8; i++ {
			a := w.next(newTestSrc())
			if a&setMask != first&setMask {
				t.Fatalf("alias blocks land in different 16kB sets: %#x vs %#x", a, first)
			}
		}
	})
	t.Run("hot-bounded", func(t *testing.T) {
		r := &Region{Kind: HotSpot, Base: 0x4000, Hot: 10, Weight: 1}
		w, _ := newRegionWalker(r, newTestSrc())
		src := newTestSrc()
		for i := 0; i < 1000; i++ {
			a := w.next(src)
			if a < 0x4000 || a >= 0x4000+10*hotGrain {
				t.Fatalf("hot access %#x out of range", a)
			}
		}
	})
}

func TestScatterBlocksDistinct(t *testing.T) {
	r := &Region{Kind: ConflictAlias, Base: 0, AliasStride: 32 * kB, Degree: 20,
		Scatter: true, RandomOrder: true, Weight: 1}
	w, err := newRegionWalker(r, newTestSrc())
	if err != nil {
		t.Fatal(err)
	}
	aw := w.(*aliasWalker)
	seen := map[int]bool{}
	for _, s := range aw.slots {
		if seen[s] {
			t.Fatalf("duplicate scatter slot %d", s)
		}
		seen[s] = true
	}
	if len(aw.slots) != 20 {
		t.Fatalf("slots = %d, want 20", len(aw.slots))
	}
}

// BenchmarkGenerator times one generated record (ns/op = ns per
// instruction) on the bench probe's profiles, through Next and through
// Fill into a reused chunk.
func BenchmarkGenerator(b *testing.B) {
	for _, name := range []string{"gcc", "equake"} {
		b.Run(name+"/next", func(b *testing.B) {
			g, err := New(mustProfile(b, name))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
		b.Run(name+"/fill", func(b *testing.B) {
			g, err := New(mustProfile(b, name))
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]trace.Record, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i += len(buf) {
				g.Fill(buf[:min(len(buf), b.N-i)])
			}
		})
	}
}

// newTestSrc returns a fresh deterministic source for walker tests.
func newTestSrc() *rng.Source { return rng.New(77) }
