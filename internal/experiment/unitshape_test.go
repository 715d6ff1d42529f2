package experiment

import (
	"bytes"
	"sort"
	"testing"

	"bcache/internal/obs/tracespan"
)

// profileUnitExperiments are the (profile × configuration) grid
// experiments and the single-seed sweeps, fig3 and xrelated.
var profileUnitExperiments = []string{"fig3", "table7", "x3c", "xdrowsy", "xrecolor", "xrelated", "xvipt"}

// runCSV runs experiment id and returns its tables as CSV.
func runCSV(t *testing.T, id string, opts Opts) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return csvOf(t, tables)
}

// csvOf renders tables as CSV.
func csvOf(t *testing.T, tables []*Table) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, tb := range tables {
		if err := tb.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestProfileUnitsWorkerInvariant: results are reduced by key after the
// run, so the worker count (and with it the unit completion order)
// cannot reach the output.
func TestProfileUnitsWorkerInvariant(t *testing.T) {
	for _, id := range profileUnitExperiments {
		t.Run(id, func(t *testing.T) {
			one, four := tinyOpts(), tinyOpts()
			one.Workers, four.Workers = 1, 4
			a := runCSV(t, id, one)
			b := runCSV(t, id, four)
			if !bytes.Equal(a, b) {
				t.Fatalf("CSV differs between 1 and 4 workers\n1: %s\n4: %s", a, b)
			}
		})
	}
}

// TestSingleSeedSweepsIgnoreSeeds: fig3 and xrelated plot the canonical
// trace alone, so their sweeps run one seed whatever Opts.Seeds says,
// and a second seed cannot reach their CSV.
func TestSingleSeedSweepsIgnoreSeeds(t *testing.T) {
	for _, id := range []string{"fig3", "xrelated"} {
		t.Run(id, func(t *testing.T) {
			one, two := tinyOpts(), tinyOpts()
			one.Seeds, two.Seeds = 1, 2
			if a, b := runCSV(t, id, one), runCSV(t, id, two); !bytes.Equal(a, b) {
				t.Fatalf("CSV differs between 1 and 2 seeds\n1: %s\n2: %s", a, b)
			}
		})
	}
}

// TestNoTraceAccessOutsideUnits: every registered experiment reads its
// traces in passes the scheduler runs, so no simulation runs serially
// outside the scheduler's deadline, retry and timing coverage. Each
// pass's trace_build span of a campaign over the whole registry must
// start within some unit span (its first unit's). Not parallel: the
// telemetry hub is process-global.
func TestNoTraceAccessOutsideUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	ResetTraceCache()
	defer ResetTraceCache()
	tel := NewTelemetry(1<<20, nil)
	SetTelemetry(tel)
	defer SetTelemetry(nil)

	opts := tinyOpts()
	opts.Workers = 2
	for i, out := range RunAll(opts, All()) {
		if out.Err != nil {
			t.Fatalf("%s: %v", All()[i].ID, out.Err)
		}
	}
	j := tel.Journal()
	if j.Dropped() > 0 {
		t.Fatalf("journal dropped %d spans; raise its capacity", j.Dropped())
	}

	type span struct{ start, end int64 }
	var units []span
	var traces []tracespan.Span
	for _, s := range j.Snapshot() {
		switch s.Kind {
		case tracespan.KindUnit:
			units = append(units, span{s.StartUnixNano, s.StartUnixNano + s.DurNanos})
		case tracespan.KindTraceBuild:
			traces = append(traces, s)
		}
	}
	if len(traces) != 26 {
		t.Fatalf("%d trace_build spans, want one per pass: 26", len(traces))
	}
	// maxEnd[i] is the latest end among the i+1 earliest-starting units.
	sort.Slice(units, func(a, b int) bool { return units[a].start < units[b].start })
	maxEnd := make([]int64, len(units))
	for i, u := range units {
		maxEnd[i] = u.end
		if i > 0 && maxEnd[i-1] > u.end {
			maxEnd[i] = maxEnd[i-1]
		}
	}
	for _, s := range traces {
		i := sort.Search(len(units), func(i int) bool { return units[i].start > s.StartUnixNano }) - 1
		if i < 0 || maxEnd[i] < s.StartUnixNano {
			t.Errorf("%s %q starts outside every unit span", s.Kind, s.Name)
		}
	}
}

// TestNoRecordTraceOutlivesExperiment: every chunk buffer lives only
// for its pass, so once any registered experiment's Run returns no
// trace bytes are resident. A future experiment inherits the guarantee
// by declaring its units.
func TestNoRecordTraceOutlivesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Workers = 2
	for _, e := range All() {
		if _, err := e.Run(opts); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if c := TraceCacheStats(); c.Bytes != 0 {
			t.Errorf("%s left %d trace bytes resident", e.ID, c.Bytes)
		}
	}
}

// TestRecordExperimentsBudgetInvariant: the experiments whose passes
// feed the CPU model render the same CSV whatever the worker count, so
// neither the claim order of the passes nor which passes overlap can
// reach the output. fig9 reuses fig8's timed results at each worker
// count, as in a suite.
func TestRecordExperimentsBudgetInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("three runs of the timed experiments are slow")
	}
	ids := []string{"fig8", "fig9", "table7", "xl2", "xprefetch", "xwindow"}
	workers := []int{1, 2, 3}
	csv := make(map[string][][]byte, len(ids))
	for _, w := range workers {
		opts := tinyOpts()
		opts.Workers = w
		for _, id := range ids {
			csv[id] = append(csv[id], runCSV(t, id, opts))
		}
	}
	for _, id := range ids {
		for k := 1; k < len(workers); k++ {
			if got, want := csv[id][k], csv[id][0]; !bytes.Equal(got, want) {
				t.Errorf("%s: %d workers' CSV differs from 1 worker's\ngot:  %s\nwant: %s", id, workers[k], got, want)
			}
		}
	}
}
