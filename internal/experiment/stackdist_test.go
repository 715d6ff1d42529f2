package experiment

import (
	"fmt"
	"testing"

	"bcache/internal/cache"
	"bcache/internal/energy"
	"bcache/internal/stackdist"
	"bcache/internal/workload"
)

// gridProfiles returns a small but behaviourally diverse benchmark set:
// hot-loop reuse, pointer chasing, and power-of-two conflict striding.
func gridProfiles(t *testing.T) []*workload.Profile {
	t.Helper()
	var out []*workload.Profile
	for _, name := range []string{"gcc", "mcf", "wupwise"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestStackDistMatchesReplay is the end-to-end differential: miss-rate
// results derived from the one-pass stack-distance profile must be
// bit-identical (hit and miss counts, a victim buffer's hits and a
// B-Cache's PD outcomes during misses) to the per-spec replay oracle
// across a capacity × associativity × profile × side grid.
func TestStackDistMatchesReplay(t *testing.T) {
	profiles := gridProfiles(t)
	specs := []Spec{
		setAssocSpec(2, energy.Way2),
		setAssocSpec(8, energy.Way8),
		setAssocSpec(32, energy.Way32),
		victimSpec(4), // profiled behind the direct-mapped array, replayed under DisableStackDist
		bcacheSpec(1, 1),
		bcacheSpec(2, 4),
		bcacheSpec(8, 8),
		bcacheSpec(16, 8),
		bcacheSpec(64, 2),
	}
	for _, size := range []int{8 * 1024, 16 * 1024} {
		for _, s := range []side{dSide, iSide} {
			t.Run(fmt.Sprintf("%dkB-side%d", size/1024, s), func(t *testing.T) {
				opts := tinyOpts()
				opts.L1Size = size

				fast, err := missRates(sweep{opts, profiles, specs, s})
				if err != nil {
					t.Fatal(err)
				}
				opts.DisableStackDist = true
				oracle, err := missRates(sweep{opts, profiles, specs, s})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range profiles {
					for _, sp := range append([]Spec{baselineSpec()}, specs...) {
						f, o := fast[p.Name][sp.Name], oracle[p.Name][sp.Name]
						if f != o {
							t.Errorf("%s/%s: profile %+v != replay %+v", p.Name, sp.Name, f, o)
						}
					}
				}
			})
		}
	}
}

// TestStackDistMatchesDirectReplay checks the profiler against raw
// cache.SetAssoc replays, up to the deepest associativity it tracks,
// which no figure spec exercises.
func TestStackDistMatchesDirectReplay(t *testing.T) {
	opts := tinyOpts()
	for _, p := range gridProfiles(t) {
		accs, _ := materialize(t, p, opts.Instructions, opts.LineBytes)
		frames := opts.L1Size / opts.LineBytes
		var geoms []stackdist.Geom
		ways := []int{1, 2, 8, stackdist.MaxWays}
		for _, w := range ways {
			geoms = append(geoms, stackdist.Geom{Sets: frames / w, Ways: w})
		}
		prof, err := stackdist.NewProfile(opts.LineBytes, geoms)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range accs {
			prof.Access(m.Addr())
		}
		for _, w := range ways {
			c, err := cache.NewSetAssoc(opts.L1Size, opts.LineBytes, w, cache.LRU, nil)
			if err != nil {
				t.Fatal(err)
			}
			cache.Replay(c, accs, nil)
			got, err := prof.Misses(frames/w, w)
			if err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); got != st.Misses || prof.Accesses() != st.Accesses {
				t.Errorf("%s %dway: profile (m=%d a=%d) != replay (m=%d a=%d)",
					p.Name, w, got, prof.Accesses(), st.Misses, st.Accesses)
			}
		}
	}
}

// TestStackDistInclusionProperty: the property one-pass profiling rests
// on — at a fixed set count, an LRU cache's content is a prefix of the
// recency stack, so misses are exactly non-increasing in associativity.
// Asserted over every workload the suite ships, at several set counts,
// each up to twice its capacity's ways or stackdist.MaxWays.
func TestStackDistInclusionProperty(t *testing.T) {
	opts := tinyOpts()
	frames := opts.L1Size / opts.LineBytes
	var geoms []stackdist.Geom
	for _, sets := range []int{1, 16, 128} {
		geoms = append(geoms, stackdist.Geom{Sets: sets, Ways: min(frames/sets*2, stackdist.MaxWays)})
	}
	for _, p := range workload.All() {
		accs, _ := materialize(t, p, opts.Instructions, opts.LineBytes)
		prof, err := stackdist.NewProfile(opts.LineBytes, geoms)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range accs {
			prof.Access(m.Addr())
		}
		for _, g := range geoms {
			prev := prof.Accesses() + 1
			for w := 1; w <= g.Ways; w *= 2 {
				m, err := prof.Misses(g.Sets, w)
				if err != nil {
					t.Fatal(err)
				}
				if m > prev {
					t.Errorf("%s sets=%d: misses rose %d→%d going to %d ways",
						p.Name, g.Sets, prev, m, w)
				}
				prev = m
			}
		}
	}
}

// TestStackDistCapacityNearMonotone: at fixed capacity, doubling
// associativity also halves the set count — a different index mapping —
// so strict inclusion no longer applies and tiny anomalies are genuine
// cache behaviour (the replay oracle reproduces them bit-identically;
// see TestStackDistMatchesDirectReplay). This pins the anomaly down:
// miss counts may rise by at most 1% per associativity doubling, from
// direct-mapped to fully associative. The profiler answers up to
// stackdist.MaxWays ways; wider shapes replay through cache.SetAssoc.
func TestStackDistCapacityNearMonotone(t *testing.T) {
	opts := tinyOpts()
	frames := opts.L1Size / opts.LineBytes
	var geoms []stackdist.Geom
	for w := 1; w <= stackdist.MaxWays; w *= 2 {
		geoms = append(geoms, stackdist.Geom{Sets: frames / w, Ways: w})
	}
	for _, p := range workload.All() {
		accs, _ := materialize(t, p, opts.Instructions, opts.LineBytes)
		prof, err := stackdist.NewProfile(opts.LineBytes, geoms)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range accs {
			prof.Access(m.Addr())
		}
		misses := func(w int) (uint64, error) {
			if w <= stackdist.MaxWays {
				return prof.Misses(frames/w, w)
			}
			c, err := cache.NewSetAssoc(opts.L1Size, opts.LineBytes, w, cache.LRU, nil)
			if err != nil {
				return 0, err
			}
			cache.Replay(c, accs, nil)
			return c.Stats().Misses, nil
		}
		prev := prof.Accesses() + 1
		for w := 1; w <= frames; w *= 2 {
			m, err := misses(w)
			if err != nil {
				t.Fatal(err)
			}
			if m > prev+prev/100 {
				t.Errorf("%s: misses rose %d→%d (>1%%) going to %d ways at fixed %dkB",
					p.Name, prev, m, w, opts.L1Size/1024)
			}
			prev = m
		}
	}
}

// TestStackDistCheckpointInterop: units checkpointed by a replay run
// must satisfy a later profiled run (and vice versa) — the keys and the
// stored counters are path-independent.
func TestStackDistCheckpointInterop(t *testing.T) {
	dir := t.TempDir()
	profiles := gridProfiles(t)[:1]
	specs := []Spec{setAssocSpec(4, energy.Way4)}

	opts := tinyOpts()
	opts.DisableStackDist = true
	opts.Checkpoint = NewCheckpoint(dir + "/cp.log")
	oracle, err := missRates(sweep{opts, profiles, specs, dSide})
	if err != nil {
		t.Fatal(err)
	}
	recorded := opts.Checkpoint.Len()
	if recorded == 0 {
		t.Fatal("replay run recorded no units")
	}

	// Second run with profiling enabled must restore every unit from the
	// checkpoint rather than recompute.
	opts.DisableStackDist = false
	hits := 0
	opts.Checkpoint.SetAfterRecord(func(int) { hits++ })
	fast, err := missRates(sweep{opts, profiles, specs, dSide})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Fatalf("profiled run re-recorded %d units despite full checkpoint", hits)
	}
	p := profiles[0].Name
	for _, name := range []string{"baseline", "4way"} {
		if fast[p][name] != oracle[p][name] {
			t.Errorf("%s: restored %+v != oracle %+v", name, fast[p][name], oracle[p][name])
		}
	}
}
