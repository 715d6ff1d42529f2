package experiment

import (
	"context"
	"testing"

	"bcache/internal/workload"
)

// TestTimedL1MatchesReplay is the cross-layer conservation check behind
// the timed units' miss-rate keys. The CPU model reaches its L1s
// through hier, once per load or store and once per new fetch line;
// the replay units read the data stream and the fetch stream that
// chunk extraction builds. For every profile, the baseline and every
// timedSpecs configuration, the timed engine's D- and I-side counters
// (misses, accesses, PD outcomes, buffer hits) must equal a
// replayEngine's on those streams, so a hier, CPU-model or extraction
// bug that no twin test sees fails here. Each profile runs two passes:
// in one the timed engines step the shared timing frame every campaign
// builds (Core.StepFrame), in the other the records (Core.Step; a
// chunk that carries a frame gives it to every timed engine, so the two
// paths cannot share a pass). The timed units must also commit them
// under exactly the keys Figures 4 and 5 read.
func TestTimedL1MatchesReplay(t *testing.T) {
	opts := tinyOpts()
	specs := append([]Spec{baselineSpec()}, timedSpecs()...)
	var pd, buffered uint64
	paths := []struct {
		name  string
		reads stream
	}{{"frame", frameStream(opts.LineBytes)}, {"records", recordStream}}
	for _, p := range workload.All() {
		for _, path := range paths {
			type twins struct {
				timed engine[timedRun]
				d, i  engine[[]UnitResult]
			}
			var fs []*feeder
			ts := make([]twins, len(specs))
			for x, spec := range specs {
				tw := &ts[x]
				var err error
				if tw.timed, err = timedEngine(spec, opts); err != nil {
					t.Fatal(err)
				}
				if tw.d, err = replayEngine(opts, dSide, spec); err != nil {
					t.Fatal(err)
				}
				if tw.i, err = replayEngine(opts, iSide, spec); err != nil {
					t.Fatal(err)
				}
				fs = append(fs,
					&feeder{unit: len(fs), reads: path.reads, feed: tw.timed.feed},
					&feeder{unit: len(fs) + 1, reads: dataStream, feed: tw.d.feed},
					&feeder{unit: len(fs) + 2, reads: fetchStream(opts.LineBytes), feed: tw.i.feed})
			}
			if _, _, err := runPass(context.Background(), p, opts.Instructions, fs, nil); err != nil {
				t.Fatal(err)
			}
			for _, f := range fs {
				if f.err != nil {
					t.Fatalf("%s: %v", p.Name, f.err)
				}
			}
			for x, spec := range specs {
				got := ts[x].timed.l1()
				for s, e := range []engine[[]UnitResult]{ts[x].d, ts[x].i} {
					want, err := e.results()
					if err != nil {
						t.Fatal(err)
					}
					if got[s] != want[0] {
						t.Errorf("%s/%s side %d: timed L1 over the %s %+v, replay %+v", p.Name, spec.Name, s, path.name, got[s], want[0])
					}
					if want[0].Accesses == 0 {
						t.Errorf("%s/%s side %d: no accesses", p.Name, spec.Name, s)
					}
					pd += want[0].PDHit + want[0].PDMiss
					buffered += want[0].Extra
				}
			}
		}
	}
	if pd == 0 || buffered == 0 {
		t.Errorf("vacuous comparison: %d PD outcomes, %d buffer hits in all", pd, buffered)
	}

	// The first profile's timed units, one per spec in order.
	p := workload.All()[0]
	fig4, fetch := fig4Sweep(opts), sweep{opts, workload.All(), nil, iSide}
	for c, u := range timedGrid(opts).units()[:len(specs)] {
		spec := specs[c]
		if len(u.keys) != 3 || u.keys[1] != fig4.key(spec, 0, p.Name) || u.keys[2] != fetch.key(spec, 0, p.Name) {
			t.Errorf("%s commits %q, want its timed key, then %s's D and I miss-rate keys", u.label, u.keys, spec.Name)
		}
	}
}
