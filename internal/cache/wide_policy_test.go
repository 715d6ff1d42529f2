package cache

import (
	"encoding/binary"
	"fmt"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/rng"
)

// TestIndexCrossover pins the faIndexMinWays threshold for every policy
// kind: below it the bitmask scan runs (idx nil), at or above it the
// hash index is active, and NewSetAssocScan strips it unconditionally.
// The linear LRU victim scan is justified by exactly this split.
func TestIndexCrossover(t *testing.T) {
	for _, kind := range []PolicyKind{LRU, FIFO, Random} {
		src := rng.New(1)
		narrow, err := NewSetAssoc(16*1024, 32, 32, kind, src)
		if err != nil {
			t.Fatal(err)
		}
		if narrow.idx != nil {
			t.Errorf("%v: 32-way set unexpectedly indexed", kind)
		}
		wide, err := NewSetAssoc(16*1024, 32, faIndexMinWays, kind, src)
		if err != nil {
			t.Fatal(err)
		}
		if wide.idx == nil {
			t.Errorf("%v: %d-way set not indexed", kind, faIndexMinWays)
		}
		scan, err := NewSetAssocScan(16*1024, 32, 512, kind, src)
		if err != nil {
			t.Fatal(err)
		}
		if scan.idx != nil {
			t.Errorf("%v: scan constructor left the index active", kind)
		}
	}
}

// TestWidePolicyIndexVsScan proves the indexed FIFO/Random wide-set path
// bit-identical to the linear scan across geometries, including
// per-access Results. (The LRU twin is TestFAHashVsLinear.) Random
// sources are built from the same seed on both sides; per-set Split
// streams make the victim sequence a function of the set alone.
func TestWidePolicyIndexVsScan(t *testing.T) {
	for _, kind := range []PolicyKind{FIFO, Random} {
		for _, tc := range []struct{ size, ways int }{
			{16 * 1024, 64},
			{16 * 1024, 512}, // fully associative
			{8 * 1024, 256},  // fully associative at 8kB
			{32 * 1024, 128},
		} {
			t.Run(fmt.Sprintf("%v-%dkB-%dway", kind, tc.size/1024, tc.ways), func(t *testing.T) {
				hash, err := NewSetAssoc(tc.size, 32, tc.ways, kind, rng.New(42))
				if err != nil {
					t.Fatal(err)
				}
				if hash.idx == nil {
					t.Fatal("hash index not active")
				}
				scan, err := NewSetAssocScan(tc.size, 32, tc.ways, kind, rng.New(42))
				if err != nil {
					t.Fatal(err)
				}
				src := rng.New(7)
				for i, a := range conflictStream(200000, uint64(tc.size+tc.ways)) {
					write := src.Intn(4) == 0
					rh := hash.Access(a, write)
					rs := scan.Access(a, write)
					if rh != rs {
						t.Fatalf("access %d (%#x, write=%v): hash %+v, scan %+v", i, a, write, rh, rs)
					}
					if i%4096 == 0 && hash.Contains(a) != scan.Contains(a) {
						t.Fatalf("access %d: Contains diverged", i)
					}
				}
				assertSameState(t, hash, scan)
			})
		}
	}
}

// TestWidePolicyIndexDropsOnFault: a fault mutation must drop the index
// on FIFO/Random caches too, and the cache must continue bit-identically
// with a scan twin receiving the same mutation — no handoff is needed
// because those policies advanced normally while indexed.
func TestWidePolicyIndexDropsOnFault(t *testing.T) {
	for _, kind := range []PolicyKind{FIFO, Random} {
		t.Run(kind.String(), func(t *testing.T) {
			hash, err := NewFullyAssoc(16*1024, 32, kind, rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			scan, err := NewSetAssocScan(16*1024, 32, 512, kind, rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range conflictStream(100000, 21) {
				hash.Access(a, a&64 != 0)
				scan.Access(a, a&64 != 0)
			}
			hash.FlipStateBit(FaultTag, 7)
			scan.FlipStateBit(FaultTag, 7)
			if hash.idx != nil {
				t.Fatal("fault mutation left the index active")
			}
			for i, a := range conflictStream(100000, 22) {
				if rh, rs := hash.Access(a, a&32 != 0), scan.Access(a, a&32 != 0); rh != rs {
					t.Fatalf("post-fault access %d diverged: %+v vs %+v", i, rh, rs)
				}
			}
			assertSameState(t, hash, scan)
		})
	}
}

// TestRandomPerSetStreamsOrderIndependent: with per-set Split streams,
// replaying only one set's accesses must reproduce exactly what that set
// saw in a full interleaved replay, so Random-policy output does not
// depend on how sets' accesses interleave.
func TestRandomPerSetStreamsOrderIndependent(t *testing.T) {
	const size, line, ways = 8 * 1024, 32, 4
	full, err := NewSetAssoc(size, line, ways, Random, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	sets := full.Geometry().Sets
	stream := conflictStream(120000, 33)
	for _, a := range stream {
		full.Access(a, a&128 != 0)
	}
	// Replay each set's subsequence alone into a fresh cache and compare
	// that set's frames.
	for set := 0; set < sets; set += 7 {
		solo, err := NewSetAssoc(size, line, ways, Random, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range stream {
			if int(a>>solo.offBits&solo.idxMask) == set {
				solo.Access(a, a&128 != 0)
			}
		}
		base := set * ways
		for w := 0; w < ways; w++ {
			if full.tags[base+w] != solo.tags[base+w] {
				t.Fatalf("set %d way %d: tag %#x (full) != %#x (solo)", set, w, full.tags[base+w], solo.tags[base+w])
			}
		}
		mbase := set * full.maskWords
		if full.valid[mbase] != solo.valid[mbase] || full.dirty[mbase] != solo.dirty[mbase] {
			t.Fatalf("set %d: valid/dirty masks diverged", set)
		}
	}
}

// FuzzWidePolicyVsScan feeds arbitrary access streams (with interleaved
// write flags and resets) through indexed and scan FIFO/Random caches.
func FuzzWidePolicyVsScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, false)
	f.Add([]byte("\xff\xff\xff\xff\x00\x00\x00\x00repeat-me-repeat-me"), true)
	seed := make([]byte, 0, 9*64)
	src := rng.New(77)
	for i := 0; i < 64; i++ {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(src.Intn(1<<18)))
		seed = append(seed, byte(i), w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
	}
	f.Add(seed, true)
	f.Fuzz(func(t *testing.T, data []byte, random bool) {
		kind := FIFO
		if random {
			kind = Random
		}
		hash, err := NewSetAssoc(2048, 32, 64, kind, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		if hash.idx == nil {
			t.Fatal("hash index not active")
		}
		scan, err := NewSetAssocScan(2048, 32, 64, kind, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+9 <= len(data); i += 9 {
			op := data[i]
			a := addr.Addr(binary.LittleEndian.Uint64(data[i+1:i+9])) & addr.Max
			switch {
			case op == 0xff:
				hash.Reset()
				scan.Reset()
			default:
				write := op&1 != 0
				if rh, rs := hash.Access(a, write), scan.Access(a, write); rh != rs {
					t.Fatalf("access %d (%#x, write=%v): hash %+v, scan %+v", i/9, a, write, rh, rs)
				}
			}
		}
		assertSameState(t, hash, scan)
	})
}
