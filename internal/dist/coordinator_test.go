package dist

import (
	"encoding/json"
	"os/exec"
	"sync"
	"testing"
	"time"
)

// memCommit collects committed records, guarding against double-commits.
type memCommit struct {
	mu      sync.Mutex
	got     map[int][]Record
	doubled []int
}

func newMemCommit() *memCommit { return &memCommit{got: map[int][]Record{}} }

func (m *memCommit) commit(unit int, recs []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.got[unit]; dup {
		m.doubled = append(m.doubled, unit)
	}
	m.got[unit] = recs
	return nil
}

func (m *memCommit) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.got)
}

// TestCoordinateAllWorkersLostLeavesUnitsUnfinished: every subprocess
// exits immediately without speaking the protocol. Once restart budgets
// are spent the coordinator returns without an error and counts every
// unit unfinished; it commits nothing, because no worker ran a unit and
// it never runs one itself.
func TestCoordinateAllWorkersLostLeavesUnitsUnfinished(t *testing.T) {
	mc := newMemCommit()
	stats, err := Coordinate(Config{
		Units:    9,
		Workers:  2,
		ShardDir: t.TempDir(),
		Command: func(slot, attempt int) *exec.Cmd {
			return exec.Command("false")
		},
		RestartBudget: 1,
		LeaseTTL:      5 * time.Second,
		Commit:        mc.commit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unfinished != 9 || stats.Committed != 0 || stats.Failed != 0 || mc.len() != 0 {
		t.Fatalf("stats = %+v, committed map %d; want all 9 units unfinished", stats, mc.len())
	}
	if stats.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2 (one per slot)", stats.Restarts)
	}
}

// TestCoordinateAlreadyDoneSkipsUnits: checkpoint-resumed units are
// neither leased nor committed again.
func TestCoordinateAlreadyDoneSkipsUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	spec := scriptedSpec{Units: 10}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	mc := newMemCommit()
	var leased []int
	stats, err := Coordinate(Config{
		Units:       spec.Units,
		Fingerprint: spec.fingerprint(),
		Spec:        specJSON,
		ShardDir:    t.TempDir(),
		Workers:     2,
		Command:     scriptedCommand(t),
		AlreadyDone: func(u int) bool { return u%2 == 0 },
		Commit:      mc.commit,
		Events:      Events{LeaseGranted: func(slot, unit int) { leased = append(leased, unit) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 5 || stats.Unfinished != 0 || mc.len() != 5 {
		t.Fatalf("stats = %+v, committed map %d; want 5 committed", stats, mc.len())
	}
	if len(mc.doubled) != 0 {
		t.Fatalf("units committed twice: %v", mc.doubled)
	}
	for u := range mc.got {
		if u%2 == 0 {
			t.Fatalf("resumed unit %d re-committed", u)
		}
	}
	for _, u := range leased {
		if u%2 == 0 {
			t.Fatalf("resumed unit %d leased", u)
		}
	}
}

// TestCoordinateRejectsBadConfig: a campaign needs a commit sink and
// at least one worker to lease to — the coordinator runs no unit itself.
func TestCoordinateRejectsBadConfig(t *testing.T) {
	commit := func(int, []Record) error { return nil }
	command := func(slot, attempt int) *exec.Cmd { return exec.Command("false") }
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"no Commit", Config{Units: 1, Workers: 1, Command: command}},
		{"negative Units", Config{Units: -1, Workers: 1, Command: command, Commit: commit}},
		{"no workers", Config{Units: 1, Command: command, Commit: commit}},
		{"no Command", Config{Units: 1, Workers: 1, Commit: commit}},
	} {
		if _, err := Coordinate(c.cfg); err == nil {
			t.Errorf("Coordinate accepted a config with %s", c.name)
		}
	}
}

// TestCoordinateEmptyCampaign: zero units is a clean no-op even with
// workers configured.
func TestCoordinateEmptyCampaign(t *testing.T) {
	stats, err := Coordinate(Config{
		Units:   0,
		Commit:  func(int, []Record) error { return nil },
		Workers: 4,
		Command: func(slot, attempt int) *exec.Cmd { return exec.Command("false") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 0 || stats.Leases != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestCoordinateAllDoneSpawnsNoWorker: a resumed campaign with every
// unit already checkpointed starts no subprocess, so no worker
// truncates the shard its slot wrote last time.
func TestCoordinateAllDoneSpawnsNoWorker(t *testing.T) {
	spawned := 0
	stats, err := Coordinate(Config{
		Units:       3,
		Commit:      func(int, []Record) error { return nil },
		Workers:     2,
		AlreadyDone: func(int) bool { return true },
		Command: func(slot, attempt int) *exec.Cmd {
			spawned++
			return exec.Command("false")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spawned != 0 || stats.Leases != 0 || stats.Unfinished != 0 {
		t.Fatalf("spawned %d workers, stats %+v", spawned, stats)
	}
}
