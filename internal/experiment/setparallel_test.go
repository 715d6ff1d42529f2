package experiment

import (
	"reflect"
	"testing"

	"bcache/internal/cache"
	"bcache/internal/energy"
	"bcache/internal/rng"
	"bcache/internal/workload"
)

// TestSetWorkersBitIdentical: a missRates sweep with set-sharded replay
// must produce exactly the result map a sequential sweep does — same
// misses, accesses, and PD counters for every (profile, spec) cell —
// including a wide Random spec exercising the per-set split-RNG streams
// and a non-SetAssoc spec exercising the sequential fallback.
func TestSetWorkersBitIdentical(t *testing.T) {
	opts := DefaultOpts()
	opts.Instructions = 150000
	opts.DisableStackDist = true // replay every spec; profiling units don't shard
	specs := []Spec{
		setAssocSpec(8, energy.Way8),
		{Name: "rand64", Kind: energy.Way32, New: func(size, line int) (cache.Cache, error) {
			return cache.NewSetAssoc(size, line, 64, cache.Random, rng.New(7))
		}},
		bcacheSpec(8, 8, cache.LRU), // not a SetAssoc: must fall back
	}
	profiles := workload.All()[:2]

	for _, s := range []side{dSide, iSide} {
		seq := opts
		ResetUnitMemo() // force real simulations on both runs
		res1, err := missRates(sweep{seq, profiles, specs, s})
		if err != nil {
			t.Fatal(err)
		}
		par := opts
		par.SetWorkers = 8
		ResetUnitMemo()
		res2, err := missRates(sweep{par, profiles, specs, s})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res1, res2) {
			t.Fatalf("side %d: sharded results diverged\nseq: %+v\npar: %+v", s, res1, res2)
		}
	}
}
