package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// endToEndSpec is one BENCHMARK.json end_to_end entry.
type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadEndToEnd(path string) ([]endToEndSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []endToEndSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// verdict judges one metric's change runs against the parent's by the
// benchmark's rules. Samples pair up by index (run i of each side).
//
//   - improved: at least ten pairs, the change wins at least nine tenths
//     of them (ties count for neither side), and the medians differ in
//     its favour by more than the parent's interquartile range. A gain
//     does not count when the change failed more operations.
//   - unresolved: the parent's interquartile range exceeds bound times
//     its median, so a regression within the bound cannot be told from
//     noise — unless every change run reads better than every parent
//     run, which rules a regression out.
//   - regressed: the change's median is worse than the parent's by more
//     than bound times the parent's median.
//   - unchanged: otherwise.
func verdict(parent, change []float64, lowerBetter bool, bound float64, moreFailures bool) string {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	p := sortedCopy(parent)
	c := sortedCopy(change)
	if len(p) == 0 || len(c) == 0 {
		return unresolved
	}
	mp, mc := median(p), median(c)
	q1, q3 := quartiles(p)
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if !moreFailures && pairs >= 10 && 10*wins >= 9*pairs && better(mc, mp) && math.Abs(mc-mp) > q3-q1 {
		return improved
	}
	if rel(q3-q1, mp) > bound {
		if allBetter(c, p, better) {
			return unchanged
		}
		return unresolved
	}
	worse := mc - mp
	if !lowerBetter {
		worse = -worse
	}
	if rel(worse, mp) > bound {
		return regressed
	}
	return unchanged
}

// allBetter reports whether every change sample beats every parent one.
func allBetter(c, p []float64, better func(a, b float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// rel is d as a share of base, guarding a zero base.
func rel(d, base float64) float64 {
	switch {
	case base != 0:
		return d / math.Abs(base)
	case d > 0:
		return math.Inf(1)
	case d < 0:
		return math.Inf(-1)
	}
	return 0
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// compareResults prints, per workload and end-to-end metric, both sides'
// medians and quartiles and a verdict. Results from different machines
// are refused: their numbers do not compare.
func compareResults(parent, change *result, spec []endToEndSpec, w io.Writer) error {
	if parent.Machine != change.Machine {
		return fmt.Errorf("refusing to compare: machine records differ (parent %+v, change %+v)", parent.Machine, change.Machine)
	}
	var names []string
	for name := range parent.Workloads {
		if _, ok := change.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("the two results share no workload")
	}
	sort.Strings(names)
	fmt.Fprintf(w, "parent %s (dirty=%v)  change %s (dirty=%v)  machine %+v\n",
		parent.Commit, parent.Dirty, change.Commit, change.Dirty, parent.Machine)
	fmt.Fprintf(w, "%-15s %-12s %-34s %-34s %8s  %s\n", "workload", "metric", "parent median [q1, q3] n", "change median [q1, q3] n", "delta", "verdict")
	for _, name := range names {
		pw, cw := parent.Workloads[name], change.Workloads[name]
		moreFailures := cw.Failed > pw.Failed
		for _, m := range spec {
			ps, okP := pw.Metrics[m.Name]
			cs, okC := cw.Metrics[m.Name]
			if !okP || !okC {
				fmt.Fprintf(w, "%-15s %-12s missing on one side\n", name, m.Name)
				continue
			}
			v := verdict(ps.Samples, cs.Samples, m.Better == "lower", m.Bound, moreFailures)
			fmt.Fprintf(w, "%-15s %-12s %-34s %-34s %+7.1f%%  %s\n", name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", ps.Median, ps.Q1, ps.Q3, ps.N),
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", cs.Median, cs.Q1, cs.Q3, cs.N),
				100*rel(cs.Median-ps.Median, ps.Median), v)
		}
		if moreFailures {
			fmt.Fprintf(w, "%-15s failed operations rose from %d to %d\n", name, pw.Failed, cw.Failed)
		}
	}
	return nil
}
