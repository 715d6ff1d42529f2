package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"bcache/internal/obs/tracespan"
	"bcache/internal/reclog"
)

// The coordinator owns the campaign's distribution, never its
// execution: it spawns worker subprocesses, leases each one unit at a
// time, commits their results as they stream back, and absorbs every
// way a worker can let it down — crash (kill -9), hang past the lease
// deadline, corrupt shard — by re-leasing the lost units to survivors.
// When every worker is gone it returns, counting the units left
// unfinished; the caller's in-process scheduler runs those. All of it
// preserves one invariant: each unit's records commit exactly once
// (first-commit-wins), so the merged checkpoint is bit-identical to a
// single-process run no matter which workers died when.

// Events are nil-safe observation hooks: telemetry wires them to metrics
// and trace spans, the chaos tests to seeded kill switches.
// WorkerExited's unit is the one the death returned to pending, or -1
// when the worker held none.
type Events struct {
	LeaseGranted     func(slot, unit int)
	LeaseExpired     func(slot, unit int)
	WorkerStarted    func(slot, attempt, pid int)
	WorkerExited     func(slot, unit int, err error)
	WorkerRestarted  func(slot, attempt int)
	ShardMerged      func(slot, records, recovered int, dur time.Duration)
	DuplicateDropped func(unit int)
	ResultCommitted  func(worker, unit int)
}

// Config parameterizes a Coordinate run.
type Config struct {
	// Units is the plan length; Fingerprint pins the unit space.
	Units       int
	Fingerprint uint64
	// Spec is the opaque campaign spec sent to each worker in init.
	Spec json.RawMessage
	// ShardDir receives one shard file per worker incarnation
	// (shard-<slot>-<n>.bin, n the first number at or after the
	// incarnation's attempt that no file in ShardDir has yet).
	ShardDir string
	// Workers is the number of subprocess slots (at least 1).
	Workers int
	// Command builds the (unstarted) worker command for a slot
	// incarnation; the coordinator wires its pipes and process group.
	Command func(slot, attempt int) *exec.Cmd
	// LeaseTTL is how long a lease lives without a heartbeat (default
	// 30s); workers are told to beat every TTL/4.
	LeaseTTL time.Duration
	// RestartBudget is how many times a dead worker slot is respawned;
	// 0 (the zero value) means never — its units go straight to
	// survivors.
	RestartBudget int
	// DrainWindow bounds the graceful-shutdown wait before stragglers
	// are killed (default 10s).
	DrainWindow time.Duration
	// AlreadyDone, when non-nil, marks units complete before any lease
	// is granted — the checkpoint-resume seam. Such units are never
	// executed or committed again.
	AlreadyDone func(unit int) bool
	// Commit applies one unit's records exactly once, in completion
	// order. A commit error aborts the campaign.
	Commit func(unit int, recs []Record) error
	// Stop, when closed, drains the campaign: workers get shutdown plus
	// SIGINT and the merged partial result is still committed.
	Stop <-chan struct{}
	// Logf reports campaign events (nil = silent).
	Logf   func(format string, args ...any)
	Events Events
}

// Stats summarizes a Coordinate run.
type Stats struct {
	Units          int   `json:"units"`
	Committed      int   `json:"committed"`
	Duplicates     int   `json:"duplicates"`
	Failed         int   `json:"failed"`
	FailedUnits    []int `json:"failedUnits,omitempty"`
	Leases         int   `json:"leases"`
	Expiries       int   `json:"expiries"`
	Restarts       int   `json:"restarts"`
	ShardRecovered int   `json:"shardRecovered"`
	// Unfinished counts the units neither committed nor failed on return
	// (every worker lost, or Stop fired); the caller runs them.
	Unfinished  int  `json:"unfinished"`
	Interrupted bool `json:"interrupted"`
}

// event is one occurrence posted to the coordinator's single event loop.
type event struct {
	kind string // "msg", "exit", "tick", "drainExpired"
	slot int
	msg  Msg
	err  error
}

// workerProc is one live worker incarnation.
type workerProc struct {
	cmd       *exec.Cmd
	stdin     io.WriteCloser
	enc       *json.Encoder
	pid       int
	attempt   int
	shardPath string
	alive     bool
	greeted   bool
	draining  bool
	doomed    bool // SIGKILLed for a missed deadline; exit event pending
}

type coordinator struct {
	cfg   Config
	build string // sent in init; a worker of another build refuses
	clk   tracespan.Clock
	table *leaseTable
	procs []*workerProc
	evc   chan event
	donec chan struct{}
	stats Stats

	stdinMu sync.Mutex // serializes writes across send sites
}

func (c *coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Coordinate runs the campaign described by cfg and returns its stats.
// On return every unit has been committed, failed, or left unfinished
// (Stop fired, or every worker was lost) for the caller to run; the
// coordinator never executes a unit itself. Subprocesses are all reaped.
func Coordinate(cfg Config) (Stats, error) {
	if cfg.Units < 0 || cfg.Commit == nil {
		return Stats{}, errors.New("dist: config needs Units >= 0 and a Commit func")
	}
	if cfg.Workers < 1 || cfg.Command == nil {
		return Stats{}, errors.New("dist: config needs Workers >= 1 and a Command func")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.DrainWindow <= 0 {
		cfg.DrainWindow = 10 * time.Second
	}
	if cfg.RestartBudget < 0 {
		cfg.RestartBudget = 0
	}

	build, err := reclog.Self()
	if err != nil {
		return Stats{}, err
	}
	c := &coordinator{
		cfg:   cfg,
		build: build.String(),
		clk:   tracespan.Wall,
		table: newLeaseTable(cfg.Units, cfg.Workers),
		evc:   make(chan event, 64),
		donec: make(chan struct{}),
	}
	c.stats.Units = cfg.Units
	if cfg.AlreadyDone != nil {
		for i := 0; i < cfg.Units; i++ {
			if cfg.AlreadyDone(i) {
				c.table.markDone(i)
			}
		}
	}
	defer close(c.donec)
	err = c.run()
	c.stats.Duplicates = c.table.dups
	c.stats.FailedUnits = c.table.failedUnits()
	c.stats.Failed = len(c.stats.FailedUnits)
	c.stats.Unfinished = c.table.unfinished()
	return c.stats, err
}

func (c *coordinator) run() error {
	if c.table.settled() {
		// Nothing to lease (an empty plan, or a resumed campaign that is
		// complete): spawn no worker, and so truncate no shard.
		return nil
	}
	c.procs = make([]*workerProc, c.cfg.Workers)
	live := 0
	for slot := 0; slot < c.cfg.Workers; slot++ {
		if err := c.spawn(slot, 0); err != nil {
			c.logf("dist: worker %d failed to start: %v", slot, err)
			continue
		}
		live++
	}
	if live == 0 {
		return nil // every unit stays unfinished
	}

	// Expiry ticker: a clock-seam sleep loop, not time.Tick, so the
	// determinism analyzer stays clean and tests could drive it.
	tick := c.cfg.LeaseTTL / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	go func() {
		for {
			c.clk.Sleep(tick)
			select {
			case c.evc <- event{kind: "tick"}:
			case <-c.donec:
				return
			}
		}
	}()

	draining := false
	var fatal error
	for {
		if fatal == nil && !draining && c.table.settled() {
			// All units resolved: drain the survivors gracefully.
			draining = true
			c.drainAll(false)
		}
		if c.liveCount() == 0 {
			break
		}
		select {
		case <-c.cfg.Stop:
			c.cfg.Stop = nil // fire once
			c.stats.Interrupted = true
			draining = true
			c.logf("dist: interrupt — draining %d workers", c.liveCount())
			c.drainAll(true)
		case ev := <-c.evc:
			switch ev.kind {
			case "msg":
				if err := c.handleMsg(ev.slot, ev.msg); err != nil {
					if fatal == nil {
						fatal = err
					}
					draining = true
					c.drainAll(false)
				}
			case "exit":
				c.handleExit(ev.slot, ev.err, draining || fatal != nil)
			case "tick":
				if !draining {
					c.handleExpiries()
				}
			case "drainExpired":
				c.killAll()
			}
		}
	}

	// Every worker is gone. Units still pending (every slot died past its
	// restart budget) stay unfinished for the caller to run.
	return fatal
}

// spawn starts incarnation attempt of worker slot and its reader
// goroutine.
func (c *coordinator) spawn(slot, attempt int) error {
	cmd := c.cfg.Command(slot, attempt)
	if cmd.SysProcAttr == nil {
		cmd.SysProcAttr = &syscall.SysProcAttr{}
	}
	// Each worker leads its own process group so interrupt/kill signals
	// reach the whole worker tree without touching the coordinator.
	cmd.SysProcAttr.Setpgid = true
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	p := &workerProc{
		cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin),
		pid: cmd.Process.Pid, attempt: attempt, alive: true,
		shardPath: c.freshShardPath(slot, attempt),
	}
	c.procs[slot] = p
	if c.cfg.Events.WorkerStarted != nil {
		c.cfg.Events.WorkerStarted(slot, attempt, p.pid)
	}

	go func() {
		dec := json.NewDecoder(stdout)
		for {
			var m Msg
			if err := dec.Decode(&m); err != nil {
				waitErr := cmd.Wait()
				select {
				case c.evc <- event{kind: "exit", slot: slot, err: waitErr}:
				case <-c.donec:
				}
				return
			}
			select {
			case c.evc <- event{kind: "msg", slot: slot, msg: m}:
			case <-c.donec:
				return
			}
		}
	}()

	if err := c.send(p, Msg{
		Type: MsgInit, Proto: ProtoVersion, Build: c.build, Spec: c.cfg.Spec,
		ShardPath: p.shardPath, Fingerprint: c.cfg.Fingerprint,
		Units: c.cfg.Units, HeartbeatMillis: (c.cfg.LeaseTTL / 4).Milliseconds(),
	}); err != nil {
		// The worker died before reading init (its stdin broke). The
		// process did start, so its reader goroutine will surface the
		// exit; the restart budget applies there like any other death.
		// Returning an error here instead would race process startup
		// against the first write and make restart accounting depend
		// on which side lost.
		c.logf("dist: worker %d init send failed: %v", slot, err)
	}
	return nil
}

// shardName names the n-th shard of a worker slot.
func shardName(slot, n int) string {
	return fmt.Sprintf("shard-%03d-%03d.bin", slot, n)
}

// freshShardPath returns the shard path of incarnation attempt of slot:
// shard-<slot>-<n>.bin for the first n at or after attempt that names
// no file yet. The shard directory of a resumed campaign still holds
// the shards of the runs before it, whose records may be kept nowhere
// else, and a worker truncates the shard it opens, so it is never
// handed an existing one. A path that cannot be checked is returned
// as is: the worker's open reports why.
func (c *coordinator) freshShardPath(slot, attempt int) string {
	for n := attempt; ; n++ {
		path := filepath.Join(c.cfg.ShardDir, shardName(slot, n))
		if _, err := os.Lstat(path); err != nil {
			return path
		}
	}
}

// ShardPaths lists the shard files coordinators wrote into dir, in name
// order.
func ShardPaths(dir string) ([]string, error) {
	return filepath.Glob(filepath.Join(dir, "shard-*.bin"))
}

// readShard reads a worker shard of this campaign. The unit indices in a
// shard mean something only under the plan that wrote it, so a shard of
// another plan is an error.
func readShard(path string, fingerprint uint64) (*reclog.Log, error) {
	l, err := reclog.Read(path)
	if err == nil && l.End > 0 && l.Plan != fingerprint {
		err = fmt.Errorf("dist: shard %s belongs to plan %016x, want %016x", path, l.Plan, fingerprint)
	}
	return l, err
}

func (c *coordinator) send(p *workerProc, m Msg) error {
	c.stdinMu.Lock()
	defer c.stdinMu.Unlock()
	return p.enc.Encode(m)
}

func (c *coordinator) liveCount() int {
	n := 0
	for _, p := range c.procs {
		if p != nil && p.alive {
			n++
		}
	}
	return n
}

// grantTo leases the next unit to slot; with nothing pending, or a
// lease already held, the worker keeps what it has (an idle one may
// still get units back from an expiry elsewhere).
func (c *coordinator) grantTo(slot int) {
	p := c.procs[slot]
	if p == nil || !p.alive || !p.greeted || p.draining || p.doomed {
		return
	}
	unit, ok := c.table.grant(slot, c.clk.Now(), c.cfg.LeaseTTL)
	if !ok {
		return
	}
	c.stats.Leases++
	if c.cfg.Events.LeaseGranted != nil {
		c.cfg.Events.LeaseGranted(slot, unit)
	}
	if err := c.send(p, Msg{Type: MsgLease, Unit: unit}); err != nil {
		// Dead pipe: the exit event will reclaim the lease with the rest
		// of the worker's state.
		c.logf("dist: worker %d lease write failed: %v", slot, err)
	}
}

// regrantIdle offers pending work to every live idle worker. The normal
// grant sites — hello and the end of a lease — only cover a worker's own
// lifecycle; when units return to pending from someone *else's* failure
// (a worker dead past its restart budget, a failed respawn, an expired
// lease) the survivors may all be idle, having been granted nothing when
// their last lease ended, and no future message from them would
// re-offer work. This sweep is what makes "units go to survivors" true
// instead of hanging the campaign with work pending and workers parked.
func (c *coordinator) regrantIdle() {
	for slot := range c.procs {
		c.grantTo(slot)
	}
}

func (c *coordinator) handleMsg(slot int, m Msg) error {
	p := c.procs[slot]
	if p == nil {
		return nil
	}
	switch m.Type {
	case MsgHello:
		if m.Err != "" {
			return fmt.Errorf("dist: worker %d refused init: %s", slot, m.Err)
		}
		if m.Fingerprint != c.cfg.Fingerprint || m.Units != c.cfg.Units {
			return fmt.Errorf("dist: worker %d plan mismatch: %d units fp %016x, want %d units fp %016x",
				slot, m.Units, m.Fingerprint, c.cfg.Units, c.cfg.Fingerprint)
		}
		p.greeted = true
		c.grantTo(slot)
	case MsgResult, MsgUnitErr:
		if m.Unit < 0 || m.Unit >= c.cfg.Units {
			c.logf("dist: worker %d reported unit %d outside the plan's %d units; ignored", slot, m.Unit, c.cfg.Units)
			return nil
		}
		switch {
		case m.Type == MsgUnitErr:
			if c.table.fail(m.Unit) {
				c.logf("dist: unit %d failed on worker %d: %s", m.Unit, slot, m.Err)
			}
		case c.table.complete(m.Unit) != Committed:
			if c.cfg.Events.DuplicateDropped != nil {
				c.cfg.Events.DuplicateDropped(m.Unit)
			}
			c.logf("dist: duplicate completion of unit %d dropped (first commit wins)", m.Unit)
		default:
			if err := c.cfg.Commit(m.Unit, m.Records); err != nil {
				return fmt.Errorf("dist: committing unit %d: %w", m.Unit, err)
			}
			c.stats.Committed++
			if c.cfg.Events.ResultCommitted != nil {
				c.cfg.Events.ResultCommitted(slot, m.Unit)
			}
		}
		// Reporting the unit it holds ends the slot's lease and frees it
		// for the next one. A doomed slot already lost its lease at
		// expiry: its late report still commits, but grants nothing.
		if c.table.slots[slot].unit == m.Unit {
			c.table.release(slot)
			c.grantTo(slot)
		}
	case MsgHeartbeat:
		c.table.heartbeat(slot, c.clk.Now(), c.cfg.LeaseTTL)
	case MsgBye:
		// The exit event does the bookkeeping; nothing to do here.
	}
	return nil
}

// handleExit reaps a dead worker: reclaim its lease, merge its shard
// (recovering units that persisted but never reported), and respawn it
// if budget remains.
func (c *coordinator) handleExit(slot int, waitErr error, draining bool) {
	p := c.procs[slot]
	if p == nil || !p.alive {
		return
	}
	p.alive = false
	p.stdin.Close()
	unit, returned := c.table.release(slot)
	if !returned {
		unit = -1
	}
	if c.cfg.Events.WorkerExited != nil {
		c.cfg.Events.WorkerExited(slot, unit, waitErr)
	}
	if returned || waitErr != nil {
		c.logf("dist: worker %d exited (%v); leased unit returned: %v", slot, waitErr, returned)
	}
	c.mergeShard(slot, p.shardPath)
	if draining {
		return
	}
	if p.attempt < c.cfg.RestartBudget {
		c.stats.Restarts++
		if c.cfg.Events.WorkerRestarted != nil {
			c.cfg.Events.WorkerRestarted(slot, p.attempt+1)
		}
		if err := c.spawn(slot, p.attempt+1); err != nil {
			c.logf("dist: worker %d restart failed: %v", slot, err)
		}
	} else {
		c.logf("dist: worker %d out of restart budget; its units go to survivors", slot)
	}
	// The death above may have returned units to pending (and shard merge
	// may have shrunk that set); survivors idling since a lease ended with
	// nothing left to grant get no other chance to pick them up.
	c.regrantIdle()
}

// mergeShard replays a worker's shard file, committing any unit that was
// persisted but whose result message never arrived. Commit errors here
// are logged, not fatal: the units stay pending and re-lease.
func (c *coordinator) mergeShard(slot int, path string) {
	mergeStart := c.clk.Now()
	l, err := readShard(path, c.cfg.Fingerprint)
	if err != nil {
		// A worker killed before handling init never created its shard:
		// stay quiet about a missing file, loud about a corrupt one.
		if !os.IsNotExist(err) {
			c.logf("dist: shard %s unreadable: %v", path, err)
		}
		return
	}
	if l.Torn {
		c.logf("dist: shard %s has a torn tail; merging the %d intact records", path, len(l.Entries))
	}
	recovered := 0
	for _, pl := range l.Entries {
		if pl.Unit < 0 || pl.Unit >= c.cfg.Units {
			continue
		}
		// A shard mostly replays units whose results already arrived on
		// the wire; only the tail the crash cut off is news. Skipping
		// done units here (instead of letting complete count them) keeps
		// the duplicate counter meaning what it says: a re-leased unit
		// finished twice.
		if c.table.state[pl.Unit] == unitDone {
			continue
		}
		if c.table.complete(pl.Unit) != Committed {
			continue
		}
		if err := c.cfg.Commit(pl.Unit, pl.Records); err != nil {
			c.logf("dist: committing recovered unit %d: %v", pl.Unit, err)
			continue
		}
		c.stats.Committed++
		c.stats.ShardRecovered++
		recovered++
	}
	if c.cfg.Events.ShardMerged != nil {
		c.cfg.Events.ShardMerged(slot, len(l.Entries), recovered, c.clk.Now().Sub(mergeStart))
	}
}

// handleExpiries expires overdue leases and kills their workers: a
// worker that stopped heartbeating is hung (or its pipe is wedged), and
// a SIGKILL turns an unobservable state into a clean exit event that the
// normal death path — merge shard, re-lease, restart — already handles.
func (c *coordinator) handleExpiries() {
	now := c.clk.Now()
	for _, slot := range c.table.expired(now) {
		unit, returned := c.table.release(slot)
		c.stats.Expiries++
		if c.cfg.Events.LeaseExpired != nil {
			c.cfg.Events.LeaseExpired(slot, unit)
		}
		c.logf("dist: worker %d's lease on unit %d expired (returned to pending: %v)", slot, unit, returned)
		if p := c.procs[slot]; p != nil && p.alive {
			// doomed keeps the slot from being re-granted work in the
			// window between the kill and its exit event.
			p.doomed = true
			killGroup(p.pid, syscall.SIGKILL)
		}
	}
	// Expired units are pending again; hand them to idle survivors now:
	// an idle survivor has no lease whose end would grant it one.
	c.regrantIdle()
}

// drainAll asks every live worker to finish up and arms the drain
// timer; interrupt also forwards SIGINT to each worker's process group
// so workers parked outside the protocol (or their children) see it.
func (c *coordinator) drainAll(interrupt bool) {
	for slot, p := range c.procs {
		if p == nil || !p.alive || p.draining {
			continue
		}
		p.draining = true
		if err := c.send(p, Msg{Type: MsgShutdown, Interrupted: interrupt}); err != nil {
			c.logf("dist: worker %d shutdown write failed: %v", slot, err)
		}
		if interrupt {
			killGroup(p.pid, syscall.SIGINT)
		}
	}
	go func() {
		c.clk.Sleep(c.cfg.DrainWindow)
		select {
		case c.evc <- event{kind: "drainExpired"}:
		case <-c.donec:
		}
	}()
}

// killAll hard-kills every worker still alive (drain window expired).
func (c *coordinator) killAll() {
	for _, p := range c.procs {
		if p != nil && p.alive {
			killGroup(p.pid, syscall.SIGKILL)
		}
	}
}

// killGroup signals a worker's whole process group.
func killGroup(pid int, sig syscall.Signal) {
	_ = syscall.Kill(-pid, sig)
}
