package distrun

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"bcache/internal/dist"
	"bcache/internal/experiment"
	"bcache/internal/obs/metrics"
	"bcache/internal/obs/tracespan"
)

// TestDistMetricsExposition drives every coordinator hook through
// telemetryEvents: each lands one span in the installed hub, the
// distribution series render as valid OpenMetrics under their documented
// names (the contract the scrape dashboards key on), and caller hooks
// still run after the telemetry.
func TestDistMetricsExposition(t *testing.T) {
	tel := experiment.NewTelemetry(0, tracespan.NewFakeClock(time.Unix(1_700_000_000, 0)))
	prev := experiment.CurrentTelemetry()
	experiment.SetTelemetry(tel)
	defer experiment.SetTelemetry(prev)

	var extra []string
	ev := telemetryEvents(dist.Events{
		LeaseGranted: func(dist.Lease) { extra = append(extra, "lease") },
		Degraded:     func(int) { extra = append(extra, "degraded") },
	})
	ev.LeaseGranted(dist.Lease{ID: 1, Worker: 0, Start: 0, End: 8})
	ev.LeaseGranted(dist.Lease{ID: 2, Worker: 1, Start: 8, End: 16})
	ev.LeaseExpired(dist.Lease{ID: 1, Worker: 0, Start: 0, End: 8}, 8)
	ev.WorkerStarted(0, 0, 100)
	ev.WorkerStarted(1, 0, 101)
	ev.WorkerExited(0, errors.New("killed"))
	ev.WorkerRestarted(0, 1)
	ev.ShardMerged(0, 6, 2, 40*time.Millisecond)
	ev.DuplicateDropped(3)
	ev.Degraded(1)
	if ev.ResultCommitted != nil {
		t.Error("ResultCommitted hook set without a caller hook; it has no span")
	}

	if got := strings.Join(extra, ","); got != "lease,lease,degraded" {
		t.Errorf("caller hooks ran %q, want lease,lease,degraded", got)
	}
	var buf bytes.Buffer
	if err := tel.Registry().WriteOpenMetrics(&buf); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	text := buf.String()
	if err := metrics.ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"dist_leases_granted_total 2",
		"dist_releases_total 1",
		"dist_worker_restarts_total 1",
		"dist_duplicates_dropped_total 1",
		"dist_shard_recovered_units_total 2",
		"dist_workers_live 1",
		"dist_shard_merge_seconds_bucket",
		"dist_shard_merge_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	kinds := map[string]int{}
	for _, s := range tel.Journal().Snapshot() {
		kinds[s.Kind]++
	}
	for kind, want := range map[string]int{
		tracespan.KindLease:         2,
		tracespan.KindLeaseExpire:   1,
		tracespan.KindWorkerStart:   2,
		tracespan.KindWorkerExit:    1,
		tracespan.KindWorkerRestart: 1,
		tracespan.KindShardMerge:    1,
		tracespan.KindDuplicate:     1,
	} {
		if kinds[kind] != want {
			t.Errorf("%s spans = %d, want %d", kind, kinds[kind], want)
		}
	}
	if len(kinds) != 7 {
		t.Errorf("span kinds %v, want exactly the seven dist kinds", kinds)
	}
}
