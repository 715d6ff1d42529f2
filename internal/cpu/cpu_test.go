package cpu

import (
	"reflect"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/hier"
	"bcache/internal/trace"
	"bcache/internal/workload"
)

func newHier(t testing.TB, l1size int) *hier.Hierarchy {
	t.Helper()
	ic, err := cache.NewDirectMapped(l1size, 32)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := cache.NewDirectMapped(l1size, 32)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hier.New(ic, dc, hier.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// ints returns n independent single-cycle instructions on one code line.
func ints(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{PC: addr.Addr(i%8) * 4, Kind: trace.Int, Lat: 1}
	}
	return recs
}

func run(t testing.TB, recs []trace.Record, h *hier.Hierarchy) Result {
	t.Helper()
	res, err := Run(trace.NewSliceStream(recs), h, Defaults(), uint64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPeakIPC(t *testing.T) {
	// Independent 1-cycle ops: IPC approaches the 4-wide retire limit.
	res := run(t, ints(10000), newHier(t, 16*1024))
	if ipc := res.IPC(); ipc < 3.8 || ipc > 4.01 {
		t.Fatalf("peak IPC = %.3f, want ≈4", ipc)
	}
}

func TestSerialChain(t *testing.T) {
	// Each instruction depends on the previous one: IPC ≈ 1.
	recs := make([]trace.Record, 10000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0, Kind: trace.Int, Lat: 1, Src1: 1, Dst: 1}
	}
	res := run(t, recs, newHier(t, 16*1024))
	if ipc := res.IPC(); ipc < 0.95 || ipc > 1.05 {
		t.Fatalf("serial-chain IPC = %.3f, want ≈1", ipc)
	}
}

func TestFPLatencyChain(t *testing.T) {
	// A dependent chain of 4-cycle FP ops: IPC ≈ 1/4.
	recs := make([]trace.Record, 8000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0, Kind: trace.FP, Lat: 4, Src1: 1, Dst: 1}
	}
	res := run(t, recs, newHier(t, 16*1024))
	if ipc := res.IPC(); ipc < 0.23 || ipc > 0.27 {
		t.Fatalf("FP chain IPC = %.3f, want ≈0.25", ipc)
	}
}

func TestCacheMissesHurt(t *testing.T) {
	// Dependent loads that thrash a direct-mapped set run far slower
	// than the same loads hitting in cache.
	mk := func(stride int) []trace.Record {
		recs := make([]trace.Record, 4000)
		for i := range recs {
			recs[i] = trace.Record{
				PC: 0, Kind: trace.Load, Lat: 1,
				Mem:  addr.Addr(0x10000000 + (i%2)*stride),
				Src1: 1, Dst: 1,
			}
		}
		return recs
	}
	hit := run(t, mk(64), newHier(t, 16*1024))         // two distinct resident lines
	thrash := run(t, mk(16*1024), newHier(t, 16*1024)) // two conflicting lines
	if thrash.Cycles < hit.Cycles*3 {
		t.Fatalf("thrashing run (%d cycles) not clearly slower than hitting run (%d)",
			thrash.Cycles, hit.Cycles)
	}
}

func TestWindowOverlapsMisses(t *testing.T) {
	// Independent loads to distinct L2-resident lines: the 16-entry
	// window overlaps their 7-cycle latencies, so the run is much faster
	// than the serial sum of latencies.
	const n = 2048
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			PC: 0, Kind: trace.Load, Lat: 1,
			Mem: addr.Addr(0x10000000 + (i%1024)*32), // 32kB working set: L1 misses, L2 hits
		}
	}
	h := newHier(t, 1024) // tiny L1 so every load misses to L2
	// Prewarm the L2 so every load is exactly an L1-miss/L2-hit (7
	// cycles); then clear the L1 so the misses still happen.
	for i := 0; i < 1024; i++ {
		h.Data(addr.Addr(0x10000000+i*32), false)
	}
	h.D.Reset()
	res := run(t, recs, h)
	serial := uint64(n * 7)
	if res.Cycles > serial/2 {
		t.Fatalf("no memory-level parallelism: %d cycles vs %d serial", res.Cycles, serial)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	// Stores retire through the write buffer: a stream of missing stores
	// must not run at memory latency.
	recs := make([]trace.Record, 4000)
	for i := range recs {
		recs[i] = trace.Record{
			PC: 0, Kind: trace.Store, Lat: 1,
			Mem: addr.Addr(0x10000000 + i*4096),
		}
	}
	res := run(t, recs, newHier(t, 16*1024))
	// All-store streams are bound by the two data-cache ports, not by
	// the misses: ≈2 IPC, far above the ~0.04 a memory-latency stall
	// per store would give.
	if ipc := res.IPC(); ipc < 1.8 {
		t.Fatalf("store stream IPC = %.3f, want ≈2 (port-bound, not miss-bound)", ipc)
	}
	if res.Stores != 4000 {
		t.Fatalf("stores counted = %d", res.Stores)
	}
}

func TestFetchStalls(t *testing.T) {
	// Instructions spread over many cold lines pay instruction-fetch
	// misses; the same count on one line does not.
	cold := make([]trace.Record, 4000)
	for i := range cold {
		cold[i] = trace.Record{PC: addr.Addr(0x400000 + i*32), Kind: trace.Int, Lat: 1}
	}
	fastH, coldH := newHier(t, 16*1024), newHier(t, 1024)
	dense := run(t, ints(4000), fastH)
	sparse, err := Run(trace.NewSliceStream(cold), coldH, Defaults(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Cycles < dense.Cycles*5 {
		t.Fatalf("fetch misses not charged: sparse %d vs dense %d cycles", sparse.Cycles, dense.Cycles)
	}
}

func TestRunBounded(t *testing.T) {
	res := run(t, ints(100), newHier(t, 16*1024))
	if res.Instructions != 100 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	// maxInstr smaller than the stream.
	res2, err := Run(trace.NewSliceStream(ints(100)), newHier(t, 16*1024), Defaults(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Instructions != 10 {
		t.Fatalf("bounded instructions = %d", res2.Instructions)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{FetchWidth: 0, IssueWidth: 4, RetireWidth: 4, Window: 16},
		{FetchWidth: 4, IssueWidth: 4, RetireWidth: 4, Window: 2},
		{FetchWidth: 4, IssueWidth: -1, RetireWidth: 4, Window: 16},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Run(trace.NewSliceStream(nil), nil, Defaults(), 1); err == nil {
		t.Fatal("Run accepted nil hierarchy")
	}
}

func TestDeterminism(t *testing.T) {
	r1 := run(t, ints(5000), newHier(t, 16*1024))
	r2 := run(t, ints(5000), newHier(t, 16*1024))
	if r1 != r2 {
		t.Fatalf("nondeterministic results: %+v vs %+v", r1, r2)
	}
}

func TestMemPortContention(t *testing.T) {
	// Independent hitting loads: with 2 ports IPC caps at 2 memory ops
	// per cycle even though the core is 4-wide.
	recs := make([]trace.Record, 8000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0, Kind: trace.Load, Lat: 1, Mem: 0x10000000}
	}
	h2 := newHier(t, 16*1024)
	res2, err := Run(trace.NewSliceStream(recs), h2, Defaults(), uint64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res2.IPC(); ipc > 2.05 {
		t.Fatalf("2-port load-only IPC = %.3f, want ≤ 2", ipc)
	}
	// Unbounded ports reach the 4-wide limit.
	cfg := Defaults()
	cfg.MemPorts = 0
	h4 := newHier(t, 16*1024)
	res4, err := Run(trace.NewSliceStream(recs), h4, cfg, uint64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res4.IPC(); ipc < 3.5 {
		t.Fatalf("unbounded-port load-only IPC = %.3f, want ≈4", ipc)
	}
}

func TestNegativeMemPortsRejected(t *testing.T) {
	cfg := Defaults()
	cfg.MemPorts = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative ports accepted")
	}
}

// TestCoreChunkingInvariant: a Core stepped over a generated stream in
// chunks of any size ends with the cycles, counters and cache
// statistics of one Run over the whole stream, and so does Run over a
// stream that is not a SliceStream.
func TestCoreChunkingInvariant(t *testing.T) {
	const n = 50_000
	p, err := workload.ByName("equake")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, n)
	g.Fill(recs)
	wantH := newHier(t, 16*1024)
	want := run(t, recs, wantH)
	for _, size := range []int{1, 7, 4096, n + 1} {
		h := newHier(t, 16*1024)
		c, err := New(h, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < n; lo += size {
			c.Step(recs[lo:min(lo+size, n)])
		}
		if got := c.Result(); got != want || !reflect.DeepEqual(h.D.Stats(), wantH.D.Stats()) ||
			!reflect.DeepEqual(h.I.Stats(), wantH.I.Stats()) {
			t.Fatalf("chunks of %d: %+v, want %+v", size, got, want)
		}
	}
	gen, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	h := newHier(t, 16*1024)
	got, err := Run(gen, h, Defaults(), n)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || !reflect.DeepEqual(h.D.Stats(), wantH.D.Stats()) {
		t.Fatalf("Run over the generator: %+v, want %+v", got, want)
	}
}
