package main

import (
	"fmt"
	"sort"
	"strings"

	"bcache/internal/obs/tracespan"
)

// Kinds of the benchmark's own spans, recorded into the pass's journal
// next to the program's unit and trace-cache spans.
const (
	kindRender = "bench.render"
	kindProbe  = "bench.probe"
)

// unitFamilies are the layers unit self time is split into (see family).
var unitFamilies = []string{
	"replay.stackdist_s", "replay.bcache_s", "replay.victim_s", "replay.setassoc_s",
	"replay.dm_s", "replay.fault_s", "replay.other_s", "cpu_model.timed_s",
}

// family names the layer a scheduler unit's self time counts toward,
// from its label: "timed/<profile>/<spec>" units run the CPU model,
// "fault/..." units the fault campaign, and miss-rate units are
// "<profile>/<spec>/seed<k>" (spec names may themselves hold a '/').
func family(label string) string {
	switch {
	case strings.HasPrefix(label, "timed/"):
		return "cpu_model.timed_s"
	case strings.HasPrefix(label, "fault/"):
		return "replay.fault_s"
	}
	first, last := strings.Index(label, "/"), strings.LastIndex(label, "/")
	if first < 0 || first == last {
		return "replay.other_s"
	}
	spec := label[first+1 : last]
	switch {
	case spec == "lru-profile":
		return "replay.stackdist_s"
	case strings.HasPrefix(spec, "MF"), strings.HasPrefix(spec, "mf"), spec == "B-Cache":
		return "replay.bcache_s"
	case strings.HasPrefix(spec, "victim"):
		return "replay.victim_s"
	case strings.HasSuffix(spec, "way"):
		return "replay.setassoc_s"
	case spec == "baseline":
		return "replay.dm_s"
	}
	return "replay.other_s"
}

type interval struct{ start, end int64 }

// covered is the length of the union of ivs.
func covered(ivs []interval) int64 {
	ivs = append([]interval(nil), ivs...)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
	var total int64
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.start > cur.end:
			total += cur.end - cur.start
			cur = iv
		case iv.end > cur.end:
			cur.end = iv.end
		}
	}
	if len(ivs) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// fold turns the journal of one traced pass, which ran from start to end
// (Unix ns) on workers scheduler workers, into per-layer metrics.
//
// Each trace_build or trace_reload span becomes a child of the span that
// contains it and started last before it: the unit that triggered it, or
// the build that a nested build (a stream extracted from a record trace)
// ran inside. A span's self time is its duration minus the union of its
// children. Unit self time goes to the unit's family, build and reload
// self time to the trace cache, so the families and the trace cache
// split the unit-seconds without double counting. Under concurrency the
// rule can pick another worker's unit; trace spans carry no worker.
//
// A journal that dropped spans fails the fold: the ledger would be
// silently short.
func fold(spans []tracespan.Span, dropped uint64, workers int, start, end int64) (map[string]float64, error) {
	if dropped > 0 {
		return nil, fmt.Errorf("span journal dropped %d spans; the per-layer ledger would be incomplete", dropped)
	}
	m := map[string]float64{"tracecache.build_s": 0, "tracecache.reload_s": 0, "render.csv_s": 0}
	for _, f := range unitFamilies {
		m[f] = 0
	}
	type node struct {
		iv         interval
		kind, name string
		children   []interval
	}
	var nodes []node
	for _, s := range spans {
		switch s.Kind {
		case tracespan.KindUnit, tracespan.KindTraceBuild, tracespan.KindTraceReload:
			iv := interval{s.StartUnixNano, s.StartUnixNano + s.DurNanos}
			nodes = append(nodes, node{iv: iv, kind: s.Kind, name: s.Name})
		case tracespan.KindExperiment:
			m["exp."+s.Name+"_s"] += seconds(s.DurNanos)
		case kindRender:
			m["render.csv_s"] += seconds(s.DurNanos)
		}
	}
	// Start ascending, end descending: every container precedes what it
	// contains, and the last container before a span is its parent.
	sort.SliceStable(nodes, func(a, b int) bool {
		if nodes[a].iv.start != nodes[b].iv.start {
			return nodes[a].iv.start < nodes[b].iv.start
		}
		return nodes[a].iv.end > nodes[b].iv.end
	})
	for i := range nodes {
		if nodes[i].kind == tracespan.KindUnit {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			if nodes[j].iv.end >= nodes[i].iv.end {
				nodes[j].children = append(nodes[j].children, nodes[i].iv)
				break
			}
		}
	}

	var unitDurs []float64
	var unitIvs []interval
	var unitNanos int64
	for _, n := range nodes {
		self := seconds(n.iv.end - n.iv.start - covered(n.children))
		switch n.kind {
		case tracespan.KindUnit:
			m[family(n.name)] += self
			unitDurs = append(unitDurs, seconds(n.iv.end-n.iv.start))
			unitNanos += n.iv.end - n.iv.start
			if iv := (interval{max(n.iv.start, start), min(n.iv.end, end)}); iv.start < iv.end {
				unitIvs = append(unitIvs, iv)
			}
		case tracespan.KindTraceBuild:
			m["tracecache.build_s"] += self
		case tracespan.KindTraceReload:
			m["tracecache.reload_s"] += self
		}
	}
	sort.Float64s(unitDurs)
	wall := seconds(end - start)
	m["experiment.units"] = float64(len(unitDurs))
	m["experiment.unit_p50_ms"] = 1e3 * p50(unitDurs)
	m["experiment.unit_p90_ms"] = 1e3 * tail90(unitDurs)
	m["experiment.unit_s"] = seconds(unitNanos)
	if wall > 0 {
		m["experiment.busy_frac"] = seconds(unitNanos) / (float64(workers) * wall)
	}
	m["experiment.outside_units_s"] = wall - seconds(covered(unitIvs))
	return m, nil
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
