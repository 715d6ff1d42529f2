package main

import (
	"math"
	"strings"
	"testing"

	"bcache/internal/obs/tracespan"
)

// ms converts fixture milliseconds to nanoseconds.
func ms(v int64) int64 { return v * 1e6 }

func span(kind, name string, worker int, from, to int64) tracespan.Span {
	return tracespan.Span{Kind: kind, Name: name, Worker: worker, Unit: 0,
		StartUnixNano: ms(from), DurNanos: ms(to - from)}
}

// twoWorkerJournal is a pass from 0 to 100 ms on two workers:
//
//	worker 0: U0 gcc/lru-profile [0,40] building gcc's data stream B1
//	          [5,30], which builds the record trace B2 [6,20] inside it;
//	          U2 gcc/MF8 [45,60]; U4 gcc (a per-profile unit) [62,70]
//	worker 1: U1 equake/victim16 [8,50] reloading R1 [42,48];
//	          U3 timed/gcc/baseline [55,90]
//	shared:   X [46,49] lies inside both U1 and U2 and goes to U2, the
//	          unit that started last; B4 [92,96] is outside every unit.
func twoWorkerJournal() []tracespan.Span {
	return []tracespan.Span{
		span(tracespan.KindTraceBuild, "gcc", tracespan.SharedWorker, 6, 20),
		span(tracespan.KindTraceBuild, "gcc", tracespan.SharedWorker, 5, 30),
		span(tracespan.KindUnit, "gcc/lru-profile/seed0", 0, 0, 40),
		span(tracespan.KindTraceHit, "gcc", tracespan.SharedWorker, 41, 41),
		span(tracespan.KindTraceReload, "equake", tracespan.SharedWorker, 42, 48),
		span(tracespan.KindTraceBuild, "mcf", tracespan.SharedWorker, 46, 49),
		span(tracespan.KindUnit, "equake/victim16/seed0", 1, 8, 50),
		span(tracespan.KindUnit, "gcc/MF8/seed0", 0, 45, 60),
		span(tracespan.KindExperiment, "fig4", tracespan.SharedWorker, 0, 60),
		span(tracespan.KindUnit, "gcc", 0, 62, 70),
		span(tracespan.KindUnit, "timed/gcc/baseline", 1, 55, 90),
		span(tracespan.KindTraceBuild, "twolf", tracespan.SharedWorker, 92, 96),
		span(tracespan.KindExperiment, "fig8", tracespan.SharedWorker, 55, 95),
		span(kindRender, "fig8", tracespan.SharedWorker, 96, 97),
	}
}

func TestFoldTwoWorkerJournal(t *testing.T) {
	m, err := fold(twoWorkerJournal(), 0, 2, 0, ms(100))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		// Self times: U0 40-25 (B1 covers 25; B2 is B1's child, not U0's),
		// U1 42-6, U2 15-3, U3 35, U4 8.
		"replay.stackdist_s": 0.015,
		"replay.victim_s":    0.036,
		"replay.bcache_s":    0.012,
		"cpu_model.timed_s":  0.035,
		"replay.other_s":     0.008,
		"replay.setassoc_s":  0,
		"replay.dm_s":        0,
		"replay.fault_s":     0,
		// B2 14 + B1 30-5-14 + X 3 + B4 4; R1 6.
		"tracecache.build_s":  0.032,
		"tracecache.reload_s": 0.006,
		"experiment.units":    5,
		"experiment.unit_s":   0.140,
		// Nearest rank over 8, 15, 35, 40, 42 ms; p90 has fewer than ten
		// samples beyond it, so it reports the max.
		"experiment.unit_p50_ms":     35,
		"experiment.unit_p90_ms":     42,
		"experiment.busy_frac":       0.140 / 0.2,
		"experiment.outside_units_s": 0.010,
		"exp.fig4_s":                 0.060,
		"exp.fig8_s":                 0.040,
		"render.csv_s":               0.001,
	}
	for k, v := range want {
		if got, ok := m[k]; !ok || math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if len(m) != len(want) {
		t.Errorf("fold produced %d metrics, want %d: %v", len(m), len(want), m)
	}
	// Unit self times plus trace self times inside units account for
	// every unit-second exactly once.
	var self float64
	for _, f := range unitFamilies {
		self += m[f]
	}
	if inUnits := m["tracecache.build_s"] - 0.004 + m["tracecache.reload_s"]; math.Abs(self+inUnits-m["experiment.unit_s"]) > 1e-9 {
		t.Errorf("unit self %v + trace self in units %v != unit_s %v", self, inUnits, m["experiment.unit_s"])
	}
}

func TestFoldFailsOnDroppedSpans(t *testing.T) {
	_, err := fold(twoWorkerJournal(), 3, 2, 0, ms(100))
	if err == nil || !strings.Contains(err.Error(), "dropped 3 spans") {
		t.Fatalf("fold with dropped spans: err = %v, want a dropped-span failure", err)
	}
}

func TestNearestRankRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		p50, p90 float64
	}{
		{1, 1, 1},
		{4, 2, 4},
		{5, 3, 5},
		{99, 50, 99},  // 9 samples beyond the p90 rank: report the max
		{100, 50, 90}, // exactly 10 beyond rank 90
		{200, 100, 180},
	} {
		xs := seq(tc.n)
		if got := p50(xs); got != tc.p50 {
			t.Errorf("p50 of 1..%d = %v, want %v", tc.n, got, tc.p50)
		}
		if got := tail90(xs); got != tc.p90 {
			t.Errorf("tail90 of 1..%d = %v, want %v", tc.n, got, tc.p90)
		}
	}
}

func TestFamily(t *testing.T) {
	for label, want := range map[string]string{
		"gcc/lru-profile/seed0":          "replay.stackdist_s",
		"gcc/MF8/seed0":                  "replay.bcache_s",
		"gcc/MF8/BAS4/seed1":             "replay.bcache_s",
		"gcc/mf16-bas4/seed0":            "replay.bcache_s",
		"timed/gcc/B-Cache":              "cpu_model.timed_s",
		"timed/gcc/baseline":             "cpu_model.timed_s",
		"fault/gcc/MF8-BAS8-r0.001-none": "replay.fault_s",
		"gcc/victim16/seed0":             "replay.victim_s",
		"gcc/8way/seed0":                 "replay.setassoc_s",
		"gcc/baseline/seed0":             "replay.dm_s",
		"gcc/hac32/seed0":                "replay.other_s",
		"gcc":                            "replay.other_s",
	} {
		if got := family(label); got != want {
			t.Errorf("family(%q) = %s, want %s", label, got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) and
	// statistics.quantiles([1, 3], n=4) in Python.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 3}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
