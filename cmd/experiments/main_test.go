package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bcache/internal/experiment"
	"bcache/internal/obs/metrics"
	"bcache/internal/obs/tracespan"
)

// TestMain doubles as the experiments CLI: when the env hook is set, the
// test binary runs main with its arguments and nothing else, so the
// end-to-end tests drive the real command without building a binary.
// The -worker children a -workers-procs run spawns inherit the hook;
// with BCACHE_EXPERIMENTS_WORKERS_DIE also set, each of them exits 1
// before speaking the protocol, so the test can lose every worker.
func TestMain(m *testing.M) {
	if os.Getenv("BCACHE_EXPERIMENTS_CLI") == "1" {
		if os.Getenv("BCACHE_EXPERIMENTS_WORKERS_DIE") == "1" && slices.Contains(os.Args[1:], "-worker") {
			os.Exit(1)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the experiments CLI with args and extra environment
// entries, fails the test unless it exits 0, and returns its stdout and
// stderr.
func runCLI(t *testing.T, env []string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "BCACHE_EXPERIMENTS_CLI=1"), env...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments %s: %v\nstderr:\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestWorkersProcsMatchesInProcess: a -workers-procs run prints the same
// CSV as an in-process run, byte for byte — also when every worker dies
// at once and the in-process pass runs every unit the coordinator left.
func TestWorkersProcsMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiments CLI in subprocesses")
	}
	args := []string{"-run", "fig4,fig8", "-n", "100000", "-format", "csv"}
	want, _ := runCLI(t, nil, args...)
	distArgs := append(args, "-workers-procs", "2")
	got, stderr := runCLI(t, nil, distArgs...)
	if got != want {
		t.Errorf("-workers-procs CSV differs from the in-process CSV\nstderr:\n%s", stderr)
	}
	if strings.Contains(stderr, "left to the in-process pass") {
		t.Errorf("healthy workers left units to the in-process pass\nstderr:\n%s", stderr)
	}

	got, stderr = runCLI(t, []string{"BCACHE_EXPERIMENTS_WORKERS_DIE=1"}, distArgs...)
	if got != want {
		t.Errorf("CSV after losing every worker differs from the in-process CSV\nstderr:\n%s", stderr)
	}
	total := regexp.MustCompile(`dist: (\d+) units — 0 committed`).FindStringSubmatch(stderr)
	left := regexp.MustCompile(`dist: (\d+) units left to the in-process pass`).FindStringSubmatch(stderr)
	if total == nil || left == nil || total[1] != left[1] || total[1] == "0" {
		t.Errorf("stderr does not report every unit left to the in-process pass:\n%s", stderr)
	}
}

// TestTelemetryEndToEnd drives the whole live-telemetry stack once: the
// CLI runs fig3 and then serves /metrics and /progress on an ephemeral
// port while it lingers, both scrape and validate, SIGINT ends the
// linger with the interrupted-run exit status 130, and the span journal
// and Chrome trace written on the way out parse.
func TestTelemetryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiments CLI in a subprocess")
	}
	dir := t.TempDir()
	jsonlPath := filepath.Join(dir, "spans.jsonl")
	chromePath := filepath.Join(dir, "spans.trace.json")
	cmd := exec.Command(os.Args[0],
		"-run", "fig3", "-n", "100000",
		"-telemetry", "127.0.0.1:0",
		"-telemetry-linger", "30s",
		"-trace-out", jsonlPath,
		"-trace-chrome", chromePath)
	cmd.Env = append(os.Environ(), "BCACHE_EXPERIMENTS_CLI=1")
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The CLI announces its listener, and later the end of the run, on
	// stderr; everything else is kept for the failure report.
	addrc := make(chan string, 1)
	finished := make(chan struct{})
	var (
		tailMu sync.Mutex
		tail   strings.Builder
	)
	stderrText := func() string {
		tailMu.Lock()
		defer tailMu.Unlock()
		return tail.String()
	}
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			tailMu.Lock()
			tail.WriteString(line + "\n")
			tailMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "telemetry: serving http://"); ok {
				if i := strings.IndexByte(rest, ' '); i > 0 {
					addrc <- rest[:i]
				}
			}
			if strings.HasPrefix(line, "[fig3 completed in ") {
				close(finished)
			}
		}
	}()

	deadline := time.After(90 * time.Second)
	var addr string
	select {
	case addr = <-addrc:
	case <-deadline:
		t.Fatalf("no telemetry listener announced\nstderr:\n%s", stderrText())
	}
	select {
	case <-finished:
	case <-scanned:
		t.Fatalf("experiments exited before fig3 completed\nstderr:\n%s", stderrText())
	case <-deadline:
		t.Fatalf("fig3 did not complete\nstderr:\n%s", stderrText())
	}

	body, ctype := get(t, "http://"+addr+"/metrics")
	if !strings.HasPrefix(ctype, "application/openmetrics-text") {
		t.Errorf("/metrics content type %q, want application/openmetrics-text", ctype)
	}
	if err := metrics.ValidateExposition(string(body)); err != nil {
		t.Errorf("/metrics exposition invalid: %v", err)
	}
	if !strings.Contains(string(body), "bcache_units_queued_total") {
		t.Errorf("/metrics is missing bcache_units_queued_total:\n%s", body)
	}
	body, _ = get(t, "http://"+addr+"/progress")
	var p experiment.Progress
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("/progress parse: %v", err)
	}
	if err := experiment.ValidateProgress(p); err != nil {
		t.Errorf("/progress invalid: %v", err)
	}
	if p.QueuedUnits == 0 || p.DoneUnits != p.QueuedUnits || p.InFlight != 0 {
		t.Errorf("/progress after the run: %+v, want every queued unit done", p)
	}

	// Interrupt like an operator during the linger: it ends early, the
	// server drains, the journal exports still happen.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("interrupt: %v", err)
	}
	// Wait closes the stderr pipe, so read it to the end first.
	select {
	case <-scanned:
	case <-deadline:
		t.Fatalf("experiments did not exit after SIGINT\nstderr:\n%s", stderrText())
	}
	var xe *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &xe) || xe.ExitCode() != 130 {
		t.Fatalf("experiments exited with %v, want exit status 130\nstderr:\n%s", err, stderrText())
	}

	f, err := os.Open(jsonlPath)
	if err != nil {
		t.Fatalf("trace-out missing: %v", err)
	}
	defer f.Close()
	meta, spans, err := tracespan.ReadJSONL(f)
	if err != nil {
		t.Fatalf("trace-out invalid: %v", err)
	}
	if meta.Recorded == 0 || len(spans) == 0 {
		t.Fatal("trace-out recorded no spans")
	}
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatalf("trace-chrome missing: %v", err)
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("trace-chrome parse: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("trace-chrome has no events")
	}
}

// get fetches url and returns its body and content type, failing the
// test on any error or a non-200 status.
func get(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body, resp.Header.Get("Content-Type")
}
