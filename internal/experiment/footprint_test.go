package experiment

import (
	"runtime"
	"testing"
)

// engineFootprintCeiling bounds the live heap, in bytes, that starting
// every engine of the suite's widest trace group holds at DefaultOpts:
// the 75 engines of equake's group measured 2.26 MiB on go1.24.0
// (linux/amd64), plus 10 %, once the profile units answered the LRU
// B-Cache keys (119 engines and 2.52 MiB before). Two such groups run at once in a suite run,
// and the GC keeps about twice the live heap, so this figure drives the
// suite's peak RSS; a test failure here names the engine layer.
const engineFootprintCeiling = 2.49 * (1 << 20) // bytes

// TestEngineFootprint starts every engine of the suite's widest group,
// as one pass would, and measures the live heap they hold after a GC.
func TestEngineFootprint(t *testing.T) {
	us := campaignUnits(DefaultOpts(), All())
	starts := append(groupStarts(us), len(us))
	var group []unit
	for g := 0; g+1 < len(starts); g++ {
		if n := starts[g+1] - starts[g]; n > len(group) {
			group = us[starts[g]:starts[g+1]]
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	engines := make([]engine[[]any], 0, len(group))
	for _, u := range group {
		e, err := u.start()
		if err != nil {
			t.Fatalf("%s: %v", u.label, err)
		}
		engines = append(engines, e)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(engines)

	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d engines of %s's group hold %.2f MiB live", len(engines), group[0].prof.Name,
		float64(live)/(1<<20))
	if float64(live) > engineFootprintCeiling {
		t.Fatalf("%d engines of %s's group hold %.2f MiB live, over the %.2f MiB ceiling",
			len(engines), group[0].prof.Name, float64(live)/(1<<20), float64(engineFootprintCeiling)/(1<<20))
	}
}
