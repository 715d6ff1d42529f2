package experiment

import (
	"fmt"

	"bcache/internal/area"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/energy"
	"bcache/internal/timing"
)

// Tables 1–3: the analytical circuit-level results (decoder timing,
// storage cost, energy per access). These do not depend on workloads.

func init() {
	register(Experiment{
		ID:     "table1",
		Title:  "Timing analysis of the B-Cache decoder vs the original local decoders",
		Render: renderTable1,
	})
	register(Experiment{
		ID:     "table2",
		Title:  "Storage cost analysis (SRAM-bit equivalents)",
		Render: renderTable2,
	})
	register(Experiment{
		ID:     "table3",
		Title:  "Energy per cache access (pJ), baseline vs B-Cache",
		Render: renderTable3,
	})
}

func paperBCacheConfig(opts Opts) core.Config {
	return core.Config{
		SizeBytes: opts.L1Size, LineBytes: opts.LineBytes,
		MF: 8, BAS: 8, Policy: cache.LRU,
	}
}

func gateNames(gs []timing.Gate) string {
	s := ""
	for i, g := range gs {
		if i > 0 {
			s += "+"
		}
		s += g.String()
	}
	return s
}

func renderTable1(Opts, results) ([]*Table, error) {
	t := &Table{
		ID:    "table1",
		Title: "Decoder timing: original vs B-Cache PD (6-bit CAM) and NPD",
		Note:  "0.18um gate-delay model calibrated to the paper's compositions; absolute ns are model outputs (Table 1 cells were lost in text extraction)",
		Headers: []string{
			"decoder", "subarray", "orig-gates", "orig-ns",
			"PD-ns", "NPD-gates", "NPD-ns", "bcache-ns", "slack-ns",
		},
	}
	for _, r := range timing.Table1(6) {
		sub := fmt.Sprintf("%dB", r.SubarrayBytes)
		if r.SubarrayBytes >= 1024 {
			sub = fmt.Sprintf("%dkB", r.SubarrayBytes/1024)
		}
		t.AddRow(
			r.Name,
			sub,
			gateNames(r.OrigComposition),
			f3(r.OrigDelay),
			f3(r.PDDelay),
			gateNames(r.NPDComposition),
			f3(r.NPDDelay),
			f3(r.BCacheDelay()),
			f3(r.Slack),
		)
	}
	return []*Table{t}, nil
}

func renderTable2(opts Opts, _ results) ([]*Table, error) {
	base, err := area.Baseline(opts.L1Size, opts.LineBytes)
	if err != nil {
		return nil, err
	}
	bc, err := area.BCache(paperBCacheConfig(opts))
	if err != nil {
		return nil, err
	}
	w4, err := area.SetAssoc(opts.L1Size, opts.LineBytes, 4)
	if err != nil {
		return nil, err
	}
	vt, err := area.Victim(opts.L1Size, opts.LineBytes, 16)
	if err != nil {
		return nil, err
	}
	hac, err := area.HAC(opts.L1Size, opts.LineBytes)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table2",
		Title: "Storage cost (SRAM-bit equivalents; CAM cell = 1.25 SRAM cells)",
		Headers: []string{
			"config", "tag-dec", "tag-mem", "data-dec", "data-mem", "periphery", "total", "vs-baseline",
		},
	}
	row := func(name string, c area.Cost) {
		t.AddRow(name,
			fmt.Sprintf("%.0f", c.TagDecoderBits),
			fmt.Sprintf("%.0f", c.TagBits),
			fmt.Sprintf("%.0f", c.DataDecoderBits),
			fmt.Sprintf("%.0f", c.DataBits),
			fmt.Sprintf("%.0f", c.PeripheryBits),
			fmt.Sprintf("%.0f", c.Total()),
			pct(c.OverheadVs(base)),
		)
	}
	row("baseline (DM)", base)
	row("B-Cache (MF8/BAS8)", bc)
	row("4-way", w4)
	row("DM+victim16", vt)
	row("HAC-32", hac)
	return []*Table{t}, nil
}

func renderTable3(opts Opts, _ results) ([]*Table, error) {
	p := energy.Defaults()
	base, bc, err := p.Table3(paperBCacheConfig(opts))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table3",
		Title: "Energy (pJ) per cache access",
		Note:  "T=tag, D=data, SA=sense amps, Dec=decoder, BL-WL=bit/word lines; anchored to the paper's +10.5% and CAM search energies",
		Headers: []string{
			"config", "T-SA", "T-Dec", "T-BL-WL", "D-SA", "D-Dec", "D-BL-WL", "D-others", "total",
		},
	}
	row := func(name string, a energy.AccessBreakdown) {
		t.AddRow(name, f3(a.TSA), f3(a.TDec), f3(a.TBLWL),
			f3(a.DSA), f3(a.DDec), f3(a.DBLWL), f3(a.DOthers), f3(a.Total()))
	}
	row("baseline", base)
	row("B-Cache", bc)
	// Context rows: the set-associative comparison points of §5.4.
	for _, k := range []energy.Kind{energy.Way2, energy.Way4, energy.Way8} {
		t.AddRow(k.String(), "", "", "", "", "", "", "", f3(p.PerAccess(k)))
	}
	return []*Table{t}, nil
}
