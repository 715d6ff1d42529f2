package vm

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/rng"
)

func newAS(t testing.TB, policy AllocPolicy, colorBits uint) *AddressSpace {
	t.Helper()
	as, err := NewAddressSpace(Config{PageBytes: 8192, ColorBits: colorBits, Policy: policy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestTranslateStable(t *testing.T) {
	as := newAS(t, Arbitrary, 0)
	va := addr.Addr(0x12345678)
	p1 := as.Translate(va)
	p2 := as.Translate(va)
	if p1 != p2 {
		t.Fatalf("translation not stable: %#x vs %#x", p1, p2)
	}
	// Page offset preserved.
	if addr.Field(p1, 0, 13) != addr.Field(va, 0, 13) {
		t.Fatalf("page offset changed: %#x -> %#x", va, p1)
	}
	// Same page, different offset → same frame.
	if as.Translate(va+1)>>13 != p1>>13 {
		t.Fatal("same-page addresses got different frames")
	}
	if as.Pages() != 1 {
		t.Fatalf("pages = %d, want 1", as.Pages())
	}
}

func TestDistinctPagesDistinctFrames(t *testing.T) {
	as := newAS(t, Arbitrary, 0)
	seen := map[addr.Addr]bool{}
	for i := 0; i < 500; i++ {
		pfn := as.Translate(addr.Addr(i)*8192) >> 13
		if seen[pfn] {
			t.Fatalf("frame %#x assigned twice", pfn)
		}
		seen[pfn] = true
	}
}

func TestColoringPreservesLowBits(t *testing.T) {
	// With 3 color bits, the low 3 frame-number bits equal the low 3
	// virtual-page-number bits: the PD's borrowed tag bits match.
	as := newAS(t, Colored, 3)
	for i := 0; i < 1000; i++ {
		va := addr.Addr(i) * 8192
		pa := as.Translate(va)
		if (pa>>13)&7 != (va>>13)&7 {
			t.Fatalf("coloring violated for page %d: pa %#x", i, pa)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewAddressSpace(Config{PageBytes: 1000}); err == nil {
		t.Fatal("non-power-of-two page accepted")
	}
	if _, err := NewAddressSpace(Config{PageBytes: 8192, ColorBits: 40}); err == nil {
		t.Fatal("oversized color bits accepted")
	}
	if _, err := NewTLB(0); err == nil {
		t.Fatal("zero-entry TLB accepted")
	}
}

func TestTLBHitsAndLRU(t *testing.T) {
	as := newAS(t, Arbitrary, 0)
	tlb, err := NewTLB(2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := addr.Addr(0), addr.Addr(8192), addr.Addr(16384)
	tlb.Lookup(as, a) // miss
	tlb.Lookup(as, b) // miss
	if _, hit := tlb.Lookup(as, a); !hit {
		t.Fatal("resident translation missed")
	}
	tlb.Lookup(as, c) // miss: evicts b (LRU)
	if _, hit := tlb.Lookup(as, a); !hit {
		t.Fatal("MRU translation evicted")
	}
	if _, hit := tlb.Lookup(as, b); hit {
		t.Fatal("LRU translation survived eviction")
	}
	if tlb.Hits != 2 || tlb.Misses != 4 {
		t.Fatalf("TLB counters hits=%d misses=%d, want 2/4", tlb.Hits, tlb.Misses)
	}
}

func TestTLBMatchesDirectTranslation(t *testing.T) {
	as := newAS(t, Arbitrary, 0)
	tlb, _ := NewTLB(16)
	src := rng.New(5)
	for i := 0; i < 5000; i++ {
		va := addr.Addr(src.Intn(1 << 26))
		pa, _ := tlb.Lookup(as, va)
		if pa != as.Translate(va) {
			t.Fatalf("TLB translation diverged at %#x", va)
		}
	}
}

// TestTranslateStreamsMatchPerAccess: TranslateStream is one
// Translate per access, and VIPT.Translate one TLB lookup per access in
// stream order with the low indexBits kept virtual; both append to dst
// and keep each access's direction.
func TestTranslateStreamsMatchPerAccess(t *testing.T) {
	const indexBits = 17
	src := rng.New(7)
	stream := make([]cache.MemAccess, 20000)
	for i := range stream {
		stream[i] = cache.NewMemAccess(addr.Addr(src.Intn(1<<24)), src.Intn(4) == 0)
	}
	prefix := []cache.MemAccess{cache.NewMemAccess(0x40, true)}

	as, ref := newAS(t, Arbitrary, 0), newAS(t, Arbitrary, 0)
	phys := as.TranslateStream(append([]cache.MemAccess(nil), prefix...), stream)
	if len(phys) != 1+len(stream) || phys[0] != prefix[0] {
		t.Fatalf("TranslateStream returned %d accesses, want the prefix and %d more", len(phys), len(stream))
	}
	for i, m := range stream {
		if want := cache.NewMemAccess(ref.Translate(m.Addr()), m.Write()); phys[1+i] != want {
			t.Fatalf("access %d (%#x): TranslateStream %#x, Translate %#x", i, m.Addr(), phys[1+i].Addr(), want.Addr())
		}
	}

	as, ref = newAS(t, Arbitrary, 0), newAS(t, Arbitrary, 0)
	tlb, _ := NewTLB(64)
	refTLB, _ := NewTLB(64)
	vipt, err := NewVIPT(as, tlb, indexBits)
	if err != nil {
		t.Fatal(err)
	}
	hybrid := vipt.Translate(append([]cache.MemAccess(nil), prefix...), stream)
	if len(hybrid) != 1+len(stream) || hybrid[0] != prefix[0] {
		t.Fatalf("VIPT.Translate returned %d accesses, want the prefix and %d more", len(hybrid), len(stream))
	}
	differs := 0
	for i, m := range stream {
		va := m.Addr()
		pa, _ := refTLB.Lookup(ref, va)
		want := cache.NewMemAccess(pa>>indexBits<<indexBits|addr.Field(va, 0, indexBits), m.Write())
		if hybrid[1+i] != want {
			t.Fatalf("access %d (%#x): VIPT.Translate %#x, want %#x", i, va, hybrid[1+i].Addr(), want.Addr())
		}
		if want.Addr() != pa {
			differs++
		}
	}
	if tlb.Hits != refTLB.Hits || tlb.Misses != refTLB.Misses {
		t.Fatalf("TLB hits/misses %d/%d, per-access lookups %d/%d", tlb.Hits, tlb.Misses, refTLB.Hits, refTLB.Misses)
	}
	if tlb.Hits == 0 || tlb.Misses == 0 || differs == 0 {
		t.Fatalf("TLB hits %d, misses %d, hybrid≠physical %d times: the stream must exercise all three",
			tlb.Hits, tlb.Misses, differs)
	}
}

// missIndices replays stream through c and returns the stream indices
// of its misses.
func missIndices(c cache.Cache, stream []cache.MemAccess) []uint32 {
	var events []cache.Event
	cache.Replay(c, stream, &events)
	var misses []uint32
	for _, e := range events {
		if e.Miss {
			misses = append(misses, e.Index)
		}
	}
	return misses
}

// TestVIPTBCacheWithColoring is the §6.8 result: with page coloring that
// preserves the PD's three borrowed bits, a virtually-indexed,
// physically-tagged B-Cache behaves access-for-access like a physically-
// indexed one.
func TestVIPTBCacheWithColoring(t *testing.T) {
	const size, line = 16384, 32
	mkBC := func() *core.BCache {
		bc, err := core.New(core.Config{SizeBytes: size, LineBytes: line, MF: 8, BAS: 8, Policy: cache.LRU})
		if err != nil {
			t.Fatal(err)
		}
		return bc
	}
	as := newAS(t, Colored, 4)
	tlb, _ := NewTLB(64)
	vipt, err := NewVIPT(as, tlb, 17) // offset(5)+index(9)+log2(MF)(3)
	if err != nil {
		t.Fatal(err)
	}
	viptBC, pipt := mkBC(), mkBC()

	src := rng.New(9)
	stream := make([]cache.MemAccess, 100000)
	for i := range stream {
		stream[i] = cache.NewMemAccess(addr.Addr(src.Intn(1<<22)), src.Intn(4) == 0)
	}
	mv := missIndices(viptBC, vipt.Translate(nil, stream))
	mp := missIndices(pipt, as.TranslateStream(nil, stream))
	for i := range min(len(mv), len(mp)) {
		if mv[i] != mp[i] {
			t.Fatalf("miss %d: VIPT at access %d, PIPT at access %d", i, mv[i], mp[i])
		}
	}
	if len(mv) != len(mp) {
		t.Fatalf("VIPT missed %d times, PIPT %d", len(mv), len(mp))
	}
	if err := viptBC.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestVIPTArbitraryStillSound: without coloring the virtual-index
// B-Cache may map pages differently, but it must stay internally
// consistent (invariants, hit-after-fill).
func TestVIPTArbitraryStillSound(t *testing.T) {
	bc, err := core.New(core.Config{SizeBytes: 16384, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	as := newAS(t, Arbitrary, 0)
	tlb, _ := NewTLB(64)
	vipt, err := NewVIPT(as, tlb, 17)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	stream := make([]cache.MemAccess, 0, 100000)
	for len(stream) < cap(stream) {
		m := cache.NewMemAccess(addr.Addr(src.Intn(1<<22)), false)
		stream = append(stream, m, m)
	}
	for _, i := range missIndices(bc, vipt.Translate(nil, stream)) {
		if i%2 != 0 {
			t.Fatalf("address %#x missed immediately after fill", stream[i].Addr())
		}
	}
	if err := bc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVIPTValidation(t *testing.T) {
	as := newAS(t, Arbitrary, 0)
	tlb, _ := NewTLB(4)
	if _, err := NewVIPT(nil, tlb, 14); err == nil {
		t.Fatal("nil address space accepted")
	}
	if _, err := NewVIPT(as, nil, 14); err == nil {
		t.Fatal("nil TLB accepted")
	}
	if _, err := NewVIPT(as, tlb, 64); err == nil {
		t.Fatal("oversized index bits accepted")
	}
}
