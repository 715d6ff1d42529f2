package stats

import (
	"math"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/rng"
)

func TestAnalyzeUniform(t *testing.T) {
	// Perfectly uniform usage: no frequent or less-accessed sets.
	s := NewFrames(8)
	for f := 0; f < 8; f++ {
		for i := 0; i < 10; i++ {
			s.Count(cache.Result{Frame: f, Hit: i > 0})
		}
	}
	b, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if b.FreqHitSets != 0 || b.FreqMissSets != 0 || b.LessAccessedSets != 0 {
		t.Fatalf("uniform usage classified as skewed: %+v", b)
	}
}

func TestAnalyzeSkewed(t *testing.T) {
	// One set carries nearly all hits and misses; others idle.
	s := NewFrames(10)
	for i := 0; i < 100; i++ {
		s.Count(cache.Result{Frame: 0, Hit: i%2 == 0})
	}
	for f := 1; f < 10; f++ {
		s.Count(cache.Result{Frame: f, Hit: true})
	}
	b, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if b.FreqHitSets != 0.1 {
		t.Errorf("FreqHitSets = %v, want 0.1", b.FreqHitSets)
	}
	if b.HitsInFreqSets < 0.8 {
		t.Errorf("HitsInFreqSets = %v, want most hits", b.HitsInFreqSets)
	}
	if b.FreqMissSets != 0.1 || b.MissesInFreqSets != 1.0 {
		t.Errorf("miss classification = %+v", b)
	}
	if b.LessAccessedSets != 0.9 {
		t.Errorf("LessAccessedSets = %v, want 0.9", b.LessAccessedSets)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(&Frames{}); err == nil {
		t.Fatal("accepted empty stats")
	}
	if _, err := Analyze(NewFrames(4)); err == nil {
		t.Fatal("accepted zero-access stats")
	}
}

// TestBCacheBalancesAccesses is the §6.4 claim end-to-end: on a
// conflict-heavy stream the B-Cache reduces the share of misses carried
// by frequent-miss sets and reduces the number of less-accessed sets
// compared with the direct-mapped baseline.
func TestBCacheBalancesAccesses(t *testing.T) {
	const size, line = 16384, 32
	stream := func(c cache.Cache) *Frames {
		frames := NewFrames(c.Geometry().Frames)
		src := rng.New(19)
		for i := 0; i < 400000; i++ {
			var a addr.Addr
			switch src.Intn(10) {
			case 0, 1, 2:
				a = addr.Addr(src.Intn(7) * 9 * 32768) // conflicting far blocks
			default:
				a = addr.Addr(src.Intn(128) * 32) // hot lines in few sets
			}
			frames.Count(c.Access(a, false))
		}
		return frames
	}
	dm, _ := cache.NewDirectMapped(size, line)
	bc, err := core.New(core.Config{SizeBytes: size, LineBytes: line, MF: 8, BAS: 8, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	bdm, err := Analyze(stream(dm))
	if err != nil {
		t.Fatal(err)
	}
	bbc, err := Analyze(stream(bc))
	if err != nil {
		t.Fatal(err)
	}
	if bbc.MissesInFreqSets >= bdm.MissesInFreqSets && bdm.MissesInFreqSets > 0 {
		t.Errorf("B-Cache did not shrink frequent-miss concentration: %.3f vs %.3f",
			bbc.MissesInFreqSets, bdm.MissesInFreqSets)
	}
	if bbc.LessAccessedSets > bdm.LessAccessedSets {
		t.Errorf("B-Cache increased idle sets: %.3f vs %.3f",
			bbc.LessAccessedSets, bdm.LessAccessedSets)
	}
}

// TestAnalyzeSingleFrame: with one frame the per-set average IS that
// frame's count, so nothing can exceed 2× it or fall below half of it —
// a fully-associative (single-set) cache is never "skewed".
func TestAnalyzeSingleFrame(t *testing.T) {
	s := NewFrames(1)
	for i := 0; i < 50; i++ {
		s.Count(cache.Result{Frame: 0, Hit: i%3 != 0})
	}
	b, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if b != (Balance{}) {
		t.Fatalf("single-frame cache classified as skewed: %+v", b)
	}
}

// TestAnalyzeAllMisses: a run with zero hits must classify misses
// normally and report zero (not NaN) for the hit-side fractions.
func TestAnalyzeAllMisses(t *testing.T) {
	s := NewFrames(8)
	for i := 0; i < 90; i++ {
		s.Count(cache.Result{Frame: 0}) // every access misses in one set
	}
	for f := 1; f < 8; f++ {
		s.Count(cache.Result{Frame: f, Hit: false})
	}
	b, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if b.FreqHitSets != 0 || b.HitsInFreqSets != 0 {
		t.Fatalf("hit-side fractions nonzero with zero hits: %+v", b)
	}
	if math.IsNaN(b.HitsInFreqSets) || math.IsNaN(b.MissesInFreqSets) {
		t.Fatalf("NaN in all-miss classification: %+v", b)
	}
	if b.FreqMissSets != 1.0/8 {
		t.Errorf("FreqMissSets = %v, want 0.125", b.FreqMissSets)
	}
	if b.MissesInFreqSets != 90.0/97 {
		t.Errorf("MissesInFreqSets = %v, want 90/97", b.MissesInFreqSets)
	}
}

// TestAnalyzeTwoXBoundary pins the paper's strict inequality: a set
// whose hits are EXACTLY 2× the per-set average is not a frequent-hit
// set; one hit more and it is.
func TestAnalyzeTwoXBoundary(t *testing.T) {
	// Hits per frame [6,2,2,2]: total 12 over 4 frames, average 3, so
	// frame 0 sits exactly at the 2× boundary.
	at := NewFrames(4)
	for f, hits := range []int{6, 2, 2, 2} {
		for i := 0; i < hits; i++ {
			at.Count(cache.Result{Frame: f, Hit: true})
		}
	}
	b, err := Analyze(at)
	if err != nil {
		t.Fatal(err)
	}
	if b.FreqHitSets != 0 {
		t.Fatalf("exactly-2x set counted as frequent-hit: %+v", b)
	}

	// [7,2,2,1] keeps the same total, pushing frame 0 past the boundary.
	over := NewFrames(4)
	for f, hits := range []int{7, 2, 2, 1} {
		for i := 0; i < hits; i++ {
			over.Count(cache.Result{Frame: f, Hit: true})
		}
	}
	b, err = Analyze(over)
	if err != nil {
		t.Fatal(err)
	}
	if b.FreqHitSets != 0.25 {
		t.Fatalf("FreqHitSets = %v, want 0.25 once past the boundary", b.FreqHitSets)
	}
	if b.HitsInFreqSets != 7.0/12 {
		t.Fatalf("HitsInFreqSets = %v, want 7/12", b.HitsInFreqSets)
	}
}

func TestFractionsInRange(t *testing.T) {
	src := rng.New(5)
	s := NewFrames(64)
	for i := 0; i < 100000; i++ {
		s.Count(cache.Result{Frame: src.Intn(64), Hit: src.Intn(3) > 0})
	}
	b, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{b.FreqHitSets, b.HitsInFreqSets, b.FreqMissSets,
		b.MissesInFreqSets, b.LessAccessedSets, b.AccessesInLessSets} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("fraction out of range: %+v", b)
		}
	}
}
