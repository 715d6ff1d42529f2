package hier

import (
	"runtime"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/victim"
)

func build(t testing.TB) *Hierarchy {
	t.Helper()
	ic, err := cache.NewDirectMapped(16*1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := cache.NewDirectMapped(16*1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(ic, dc, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLatencies(t *testing.T) {
	h := build(t)
	// Cold access: L1 miss + L2 miss + memory = 1 + 6 + 100.
	if lat := h.Data(0, false); lat != 107 {
		t.Fatalf("cold access latency = %d, want 107", lat)
	}
	// Warm L1 hit.
	if lat := h.Data(0, false); lat != 1 {
		t.Fatalf("L1 hit latency = %d, want 1", lat)
	}
	// Conflicting line, but within the same 128B L2 line (L2 warm):
	// 16kB apart → different L2 set. Use an address in the same L2 line:
	// 0 and 32 share the L2 line; evict 0 from L1 by touching 0+16kB
	// first... simpler: re-access a line that missed before and is L2
	// resident: 0+16384 (cold: 107), then 0 again — 0 is still in L2.
	if lat := h.Data(16384, false); lat != 107 {
		t.Fatalf("second cold access = %d, want 107", lat)
	}
	if lat := h.Data(0, false); lat != 7 {
		t.Fatalf("L1 miss + L2 hit latency = %d, want 7", lat)
	}
}

func TestSplitCaches(t *testing.T) {
	h := build(t)
	h.Fetch(0x400000)
	if h.I.Stats().Accesses != 1 || h.D.Stats().Accesses != 0 {
		t.Fatal("fetch touched the data cache")
	}
	h.Data(0x10000000, true)
	if h.D.Stats().Accesses != 1 {
		t.Fatal("data access not recorded")
	}
	// Both miss paths go through the unified L2.
	if h.L2.Stats().Accesses != 2 {
		t.Fatalf("L2 accesses = %d, want 2", h.L2.Stats().Accesses)
	}
}

func TestWritebackFlow(t *testing.T) {
	h := build(t)
	h.Data(0, true)     // dirty L1 line
	h.Data(16384, true) // evicts it → L1 writeback into L2
	if h.L1Writebacks != 1 {
		t.Fatalf("L1 writebacks = %d, want 1", h.L1Writebacks)
	}
	// The writeback is an L2 access beyond the two refills.
	if h.L2.Stats().Accesses != 3 {
		t.Fatalf("L2 accesses = %d, want 3 (2 refills + 1 writeback)", h.L2.Stats().Accesses)
	}
}

func TestMemoryCounters(t *testing.T) {
	h := build(t)
	const line = 128
	for i := 0; i < 100; i++ {
		h.Data(addr.Addr(i*line*4096), false) // force L2 misses
	}
	if h.MemAccesses == 0 {
		t.Fatal("no memory accesses counted")
	}
	if h.L1Refills != h.I.Stats().Misses+h.D.Stats().Misses {
		t.Fatalf("refills %d != L1 misses %d", h.L1Refills, h.D.Stats().Misses)
	}
}

func TestExtraLatencySurfaces(t *testing.T) {
	ic, _ := cache.NewDirectMapped(1024, 32)
	vc, err := victim.New(1024, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(ic, vc, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	h.Data(0, false)
	h.Data(1024, false) // 0 → victim buffer
	// Buffer hit: 1 (L1) + 1 (probe) = 2 cycles.
	if lat := h.Data(0, false); lat != 2 {
		t.Fatalf("victim-buffer hit latency = %d, want 2", lat)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	ic, _ := cache.NewDirectMapped(1024, 32)
	dc, _ := cache.NewDirectMapped(1024, 32)
	cfg := Defaults()
	cfg.L2Latency = 0
	if _, err := New(ic, dc, cfg); err == nil {
		t.Fatal("accepted zero L2 latency")
	}
	if _, err := New(nil, dc, Defaults()); err == nil {
		t.Fatal("accepted nil icache")
	}
}

func TestReset(t *testing.T) {
	h := build(t)
	h.Data(0, true)
	h.Fetch(4096)
	h.Reset()
	if h.D.Stats().Accesses != 0 || h.L2.Stats().Accesses != 0 || h.MemAccesses != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestStreamBuffer(t *testing.T) {
	ic, _ := cache.NewDirectMapped(1024, 32)
	dc, _ := cache.NewDirectMapped(1024, 32)
	cfg := Defaults()
	cfg.StreamBuffer = 8
	h, err := New(ic, dc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential line-by-line walk through a region far larger than the
	// L1: after the first miss, each new line was prefetched.
	lat0 := h.Data(0x10000000, false) // cold: full L2 miss path
	if lat0 < 100 {
		t.Fatalf("cold latency = %d", lat0)
	}
	var streamLat int
	for i := 1; i < 64; i++ {
		streamLat = h.Data(0x10000000+addr.Addr(i*32), false)
	}
	if streamLat != cfg.L1Latency+1 {
		t.Fatalf("streamed-line latency = %d, want %d", streamLat, cfg.L1Latency+1)
	}
	if h.StreamHits < 60 {
		t.Fatalf("stream hits = %d, want ≈63", h.StreamHits)
	}
	if h.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
}

func TestStreamBufferDisabledByDefault(t *testing.T) {
	h := build(t)
	h.Data(0, false)
	h.Data(32, false) // same L1 line? 32 < line 32... line is 32B so this is the next line
	if h.Prefetches != 0 || h.StreamHits != 0 {
		t.Fatal("stream buffer active without being configured")
	}
}

func TestStreamBufferInstructionSideUnaffected(t *testing.T) {
	ic, _ := cache.NewDirectMapped(1024, 32)
	dc, _ := cache.NewDirectMapped(1024, 32)
	cfg := Defaults()
	cfg.StreamBuffer = 8
	h, _ := New(ic, dc, cfg)
	h.Fetch(0x400000)
	h.Fetch(0x400020)
	if h.Prefetches != 0 {
		t.Fatal("instruction fetches triggered data prefetches")
	}
}

func TestCustomL2(t *testing.T) {
	ic, _ := cache.NewDirectMapped(1024, 32)
	dc, _ := cache.NewDirectMapped(1024, 32)
	l2, err := cache.NewDirectMapped(64*1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewWithL2(ic, dc, l2, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	h.Data(0, false)
	if l2.Stats().Accesses != 1 {
		t.Fatalf("custom L2 accesses = %d, want 1", l2.Stats().Accesses)
	}
	if _, err := NewWithL2(ic, dc, nil, Defaults()); err == nil {
		t.Fatal("nil L2 accepted")
	}
}

// TestStreamBufferNoAllocs: the stream buffer is fixed at its depth, so
// prefetching never allocates, including when a full buffer drops its
// oldest line. A two-line stride misses the buffer every time, so every
// miss drops and fills. testing.AllocsPerRun rounds the allocations per
// call down, and a buffer that reallocates now and then averages below
// one per miss, so this counts the mallocs of 100 000 misses.
func TestStreamBufferNoAllocs(t *testing.T) {
	cfg := Defaults()
	cfg.StreamBuffer = 8
	ic, _ := cache.NewDirectMapped(16*1024, 32)
	dc, _ := cache.NewDirectMapped(16*1024, 32)
	h, err := New(ic, dc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const misses = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < misses; i++ {
		h.Data(addr.Addr(0x10000000+i*64), false)
	}
	runtime.ReadMemStats(&after)
	if h.L1Refills != misses || h.Prefetches != misses || h.StreamHits != 0 {
		t.Fatalf("%d refills, %d prefetches, %d stream hits: want %d misses that each drop and fill",
			h.L1Refills, h.Prefetches, h.StreamHits, misses)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d mallocs over %d streaming misses, want 0", n, misses)
	}
}

// TestRejectsAliasedCaches: Replay runs each L1's stream on its own, so
// the instruction and data caches (and the L2) must be three caches.
func TestRejectsAliasedCaches(t *testing.T) {
	c, _ := cache.NewDirectMapped(16*1024, 32)
	d, _ := cache.NewDirectMapped(16*1024, 32)
	l2, _ := cache.NewSetAssoc(256*1024, 128, 4, cache.LRU, nil)
	if _, err := New(c, c, Defaults()); err == nil {
		t.Error("New accepted one cache as both L1s")
	}
	for _, tc := range [][3]cache.Cache{{c, c, l2}, {c, d, c}, {c, d, d}} {
		if _, err := NewWithL2(tc[0], tc[1], tc[2], Defaults()); err == nil {
			t.Errorf("NewWithL2 accepted an aliased cache: I %p D %p L2 %p", tc[0], tc[1], tc[2])
		}
	}
	if _, err := NewWithL2(c, d, l2, Defaults()); err != nil {
		t.Fatalf("three distinct caches rejected: %v", err)
	}
}
