package stackdist_test

import (
	"fmt"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
	"bcache/internal/stackdist"
)

// TestFIFOProfileVsScanReplay replays real byte-address streams through
// linear-scan FIFO caches (cache.SetAssoc, the scan-engine oracle)
// across a grid of cache sizes and associativities — covering
// the MF×BAS-shaped geometries the B-Cache sweeps use — and checks the
// one-pass queue-distance profiler produces the identical miss count for
// every geometry from a single pass.
func TestFIFOProfileVsScanReplay(t *testing.T) {
	const lineBytes = 32
	src := rng.New(123)
	stream := make([]addr.Addr, 150000)
	for i := range stream {
		switch src.Intn(3) {
		case 0:
			stream[i] = addr.Addr(src.Intn(1 << 14)) // resident working set
		case 1:
			stream[i] = addr.Addr(src.Intn(64)) * (1 << 16) // tag aliases
		default:
			stream[i] = addr.Addr(src.Intn(1 << 24)) // mostly cold
		}
	}

	type shape struct{ size, ways int }
	shapes := []shape{
		{8 * 1024, 2}, {8 * 1024, 8}, {8 * 1024, 256},
		{16 * 1024, 1}, {16 * 1024, 4}, {16 * 1024, 16}, {16 * 1024, 512},
		{32 * 1024, 8}, {32 * 1024, 64},
	}
	geoms := make([]stackdist.Geom, len(shapes))
	for i, sh := range shapes {
		geoms[i] = stackdist.Geom{Sets: sh.size / lineBytes / sh.ways, Ways: sh.ways}
	}
	prof, err := stackdist.NewFIFOProfile(lineBytes, geoms)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range stream {
		prof.Access(a)
	}

	for i, sh := range shapes {
		t.Run(fmt.Sprintf("%dkB-%dway", sh.size/1024, sh.ways), func(t *testing.T) {
			c, err := cache.NewSetAssoc(sh.size, lineBytes, sh.ways, cache.FIFO, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range stream {
				c.Access(a, false)
			}
			got, err := prof.Misses(geoms[i].Sets, geoms[i].Ways)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.Stats().Misses; got != want {
				t.Errorf("profiler misses %d != scan replay %d", got, want)
			}
			if prof.Accesses() != c.Stats().Accesses {
				t.Errorf("profiler accesses %d != replay %d", prof.Accesses(), c.Stats().Accesses)
			}
		})
	}
}
