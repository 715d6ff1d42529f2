package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

const sampleCSV = `# fig4,D$ reductions (CFP2K),"note, with comma"
benchmark,2way
ammp,10.0%
# fig4,D$ reductions (CINT2K)
benchmark,2way
gcc,12.0%
# fig5,I$ reductions
benchmark,2way
gcc,3.0%
# table1,Decoder timing
design,ns
original,1.0
`

func TestSplitBlocks(t *testing.T) {
	blocks := splitBlocks([]byte(sampleCSV))
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3: %q", len(blocks), blocks)
	}
	if got := bytes.Count(blocks["fig4"], []byte("\n")); got != 6 {
		t.Errorf("fig4 block has %d lines, want both of its tables (6 lines)", got)
	}
	if want := "# table1,Decoder timing\ndesign,ns\noriginal,1.0\n"; string(blocks["table1"]) != want {
		t.Errorf("table1 block = %q, want %q", blocks["table1"], want)
	}
}

// TestCorruptBlockCountsOneExperiment changes one cell of one experiment's
// output and checks that exactly that experiment is counted as failed.
func TestCorruptBlockCountsOneExperiment(t *testing.T) {
	ids := []string{"fig4", "fig5", "table1"}
	want := digestBlocks([]byte(sampleCSV))
	corrupt := bytes.Replace([]byte(sampleCSV), []byte("gcc,3.0%"), []byte("gcc,3.1%"), 1)

	r := childRun{out: corrupt}
	failed, why := r.failures(ids, want)
	if failed != 1 || len(why) != 1 || !bytes.HasPrefix([]byte(why[0]), []byte("fig5:")) {
		t.Fatalf("corrupted fig5: failed = %d (%v), want exactly fig5", failed, why)
	}
	if bad := badBlocks(corrupt, ids, want); !reflect.DeepEqual(bad, []string{"fig5"}) {
		t.Errorf("badBlocks = %v, want [fig5]", bad)
	}

	missing := bytes.Split([]byte(sampleCSV), []byte("# table1"))[0]
	if bad := badBlocks(missing, ids, want); !reflect.DeepEqual(bad, []string{"table1"}) {
		t.Errorf("missing table1: badBlocks = %v, want [table1]", bad)
	}
	if failed, _ := (childRun{out: []byte(sampleCSV), err: errors.New("exit status 1")}).failures(ids, want); failed != 3 {
		t.Errorf("non-zero exit: failed = %d, want every experiment (3)", failed)
	}
	if failed, _ := (childRun{out: []byte(sampleCSV), leftoverSpill: true}).failures(ids, want); failed != 1 {
		t.Errorf("leftover spill dir: failed = %d, want 1", failed)
	}
}

// TestGoldenCoversWorkloads checks that every experiment of every
// workload, and the set-up probe, has a golden digest.
func TestGoldenCoversWorkloads(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g[setupGolden]["table1"] == "" {
		t.Error("no golden digest for the set-up probe's table1")
	}
	for _, w := range workloads() {
		for _, id := range w.ids {
			if g[w.name][id] == "" {
				t.Errorf("workload %s: no golden digest for %s", w.name, id)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json names exactly
// the workloads and metrics this command reports, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entries = []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads entries `json:"workloads"`
		EndToEnd  entries `json:"end_to_end"`
		PerLayer  entries `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads() {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, code)
	}
	check := func(kind string, listed entries, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(listed), len(defs))
		}
		for i := 0; i < min(len(listed), len(defs)); i++ {
			if listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code has %s (%s)", kind, i,
					listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics())
}
