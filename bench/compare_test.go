package main

import (
	"bytes"
	"strings"
	"testing"
)

// around returns n samples spread ±1% around v, in a shuffled order.
func around(v float64, n int) []float64 {
	offsets := []float64{0, 0.01, -0.01, 0.005, -0.005, 0.008, -0.008, 0.003, -0.003, 0.006, -0.006, 0.002}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v * (1 + offsets[i%len(offsets)])
	}
	return xs
}

func TestVerdictTable(t *testing.T) {
	wide := []float64{0.8, 1.0, 1.2, 0.9, 1.1, 0.85, 1.15, 1.05, 0.95, 1.0}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		bound          float64
		moreFailures   bool
		want           string
	}{
		{"clear gain, ten pairs", around(1, 10), around(0.8, 10), true, 0.1, false, improved},
		{"clear gain, higher is better", around(1, 10), around(1.2, 10), false, 0.1, false, improved},
		{"gain with too few pairs", around(1, 5), around(0.8, 5), true, 0.1, false, unchanged},
		{"gain with more failures", around(1, 10), around(0.8, 10), true, 0.1, true, unchanged},
		{"within bound", around(1, 10), around(1.05, 10), true, 0.1, false, unchanged},
		{"beyond bound", around(1, 10), around(1.2, 10), true, 0.1, false, regressed},
		{"beyond bound, higher is better", around(1, 10), around(0.8, 10), false, 0.1, false, regressed},
		{"parent spread wider than bound", wide, around(1.02, 10), true, 0.1, false, unresolved},
		{"wide spread, every change run better", wide[:5], around(0.5, 5), true, 0.1, false, unchanged},
		{"empty side", nil, around(1, 5), true, 0.1, false, unresolved},
	} {
		if got := verdict(tc.parent, tc.change, tc.lowerBetter, tc.bound, tc.moreFailures); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherMachine(t *testing.T) {
	a := &result{Machine: machine{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}}
	b := *a
	b.Machine.NumCPU = 1
	var out bytes.Buffer
	err := compareResults(a, &b, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "machine records differ") {
		t.Fatalf("compare across machines: err = %v, want a refusal", err)
	}
}

func TestCompareReportsEveryMetric(t *testing.T) {
	m := machine{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}
	side := func(wall float64) *result {
		return &result{Machine: m, Workloads: map[string]*workloadResult{
			"suite": {Metrics: map[string]summary{
				"wall_s": summarize("s", around(wall, 10)),
				"cpu_s":  summarize("s", around(3, 10)),
			}},
		}}
	}
	spec := []endToEndSpec{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.1},
	}
	var out bytes.Buffer
	if err := compareResults(side(2), side(2.5), spec, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wall_s", "regressed", "cpu_s", "unchanged"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
