// Package cpu implements the out-of-order processor timing model used to
// turn cache behaviour into IPC, matching the paper's Table 4
// configuration: 4-wide issue and retire, a 16-entry instruction
// window, and the hier package's two-level memory system.
//
// The model is an interval ("timestamp dataflow") simulator: instructions
// dispatch in order at up to IssueWidth per cycle into a Window-entry
// reorder buffer, execute as soon as their register operands are ready
// (loads additionally pay the data-cache latency), and retire in order at
// up to RetireWidth per cycle. Fetch has no width of its own: it charges
// the instruction cache once per line or taken branch, a miss delays the
// instructions behind it, and dispatch is the IssueWidth-wide limit.
// Branch prediction is ideal — the paper holds the front end constant
// across cache configurations, so the relative IPC between
// configurations is preserved.
//
// A Core holds one run's state between chunks of its stream, so a
// caller that produces the stream a chunk at a time (the experiment
// package's trace passes) never keeps the whole stream; Run feeds a
// Core a whole stream.
//
// A chunk runs in two passes. No cache's state depends on timing — the
// caches see the loads, stores and line fetches in program order
// whatever cycle each issues in — so the first pass replays the chunk's
// fetch and data streams through the hierarchy (hier.Replay: each L1
// in one batch, then the L2 for the accesses that did not hit), and the
// second runs the dataflow over a Frame of per-instruction ops patched
// with those accesses' latencies, with no call and no data-dependent
// branch (StepFrame). A trace pass builds one Frame per chunk for all
// its timed engines. Step, one hierarchy call per fetch and per memory
// operation interleaved with the dataflow, is the model as written
// down, the oracle StepFrame is tested against, the path a hierarchy
// with a probe attached takes, since a probe sees events in access
// order, and Run's.
package cpu

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/hier"
	"bcache/internal/trace"
)

// Config is the core configuration (paper Table 4).
type Config struct {
	IssueWidth  int // instructions dispatched/issued per cycle
	RetireWidth int // instructions retired per cycle
	Window      int // instruction window (reorder buffer) entries
	// MemPorts bounds memory operations started per cycle (the data
	// cache's port count). Zero means unbounded.
	MemPorts int
}

// Defaults returns the Table 4 baseline: a 4-issue core with a 16-entry
// instruction window and a dual-ported data cache.
func Defaults() Config {
	return Config{IssueWidth: 4, RetireWidth: 4, Window: 16, MemPorts: 2}
}

// Validate reports configuration errors. Neither width may exceed the
// window: Core looks IssueWidth and RetireWidth instructions back in a
// Window-entry ring, which holds no further.
func (c Config) Validate() error {
	if c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("cpu: non-positive width in %+v", c)
	}
	if c.Window < c.IssueWidth {
		return fmt.Errorf("cpu: window %d smaller than issue width %d", c.Window, c.IssueWidth)
	}
	if c.Window < c.RetireWidth {
		return fmt.Errorf("cpu: window %d smaller than retire width %d", c.Window, c.RetireWidth)
	}
	if c.MemPorts < 0 {
		return fmt.Errorf("cpu: negative memory ports in %+v", c)
	}
	return nil
}

// Result summarizes one simulated run.
type Result struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// Loads/Stores counts data-cache operations executed.
	Loads  uint64 `json:"loads"`
	Stores uint64 `json:"stores"`
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Core is one timing-model run held between chunks of its instruction
// stream: Step consumes the next records in stream order, and Result
// reports the run so far. A stream fed to one Core in any chunking
// gives the cycles Run gives over the whole stream.
type Core struct {
	cfg Config
	h   *hier.Hierarchy
	res Result

	// i counts the instructions stepped so far.
	i uint64

	// regReady[r] is the cycle register r's value becomes available.
	// Register 0 is the always-ready zero register.
	regReady [trace.NumRegs]uint64

	// dispatch/retire rings are indexed i % Window; slot, issueIdx, and
	// retireIdx track that modulus (and the IssueWidth/RetireWidth
	// look-back positions) by wrap-around increment — three integer
	// divisions per instruction are measurable at suite scale.
	dispatchAt, retireAt      []uint64
	slot, issueIdx, retireIdx int
	lastRetire                uint64 // retire cycle of the previous instruction
	fetchReady                uint64 // cycle the next instruction is available to dispatch
	curFetchLine, lineMask    addr.Addr

	// memStart is a ring of the last MemPorts memory-op start cycles; a
	// new memory op cannot start the same cycle as the op MemPorts back.
	memStart []uint64
	memPos   int

	// fits reports that every latency the hierarchy can return fits a
	// Frame's 16-bit op fields and the window and ports fit flow's
	// rings, so StepFrame may batch.
	fits bool
}

// New starts a run of cfg's core on h. The hierarchy's caches
// accumulate their own statistics.
func New(h *hier.Hierarchy, cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if h == nil {
		return nil, fmt.Errorf("cpu: nil hierarchy")
	}
	c := &Core{
		cfg:          cfg,
		h:            h,
		dispatchAt:   make([]uint64, cfg.Window),
		retireAt:     make([]uint64, cfg.Window),
		issueIdx:     (cfg.Window - cfg.IssueWidth%cfg.Window) % cfg.Window,
		retireIdx:    (cfg.Window - cfg.RetireWidth%cfg.Window) % cfg.Window,
		curFetchLine: ^addr.Addr(0),
		lineMask:     ^addr.Addr(uint64(h.I.Geometry().LineBytes) - 1),
	}
	// The slowest access: an L1 extra latency of at most 0xFF cycles
	// (cache.Event) on top of a miss to memory.
	hc := h.Config()
	c.fits = hc.L1Latency+0xFF+hc.L2Latency+hc.MemLatency <= maxFrameLatency &&
		cfg.Window <= flowRing && cfg.MemPorts < portRing
	if cfg.MemPorts > 0 {
		c.memStart = make([]uint64, cfg.MemPorts)
	}
	return c, nil
}

// Step runs recs, the next records of the stream, through the model,
// one hierarchy access at a time.
func (c *Core) Step(recs []trace.Record) {
	// The per-instruction state lives in locals for the loop and is
	// stored back once per chunk.
	var (
		cfg, h                    = c.cfg, c.h
		i                         = c.i
		dispatchAt, retireAt      = c.dispatchAt, c.retireAt
		slot, issueIdx, retireIdx = c.slot, c.issueIdx, c.retireIdx
		lastRetire, fetchReady    = c.lastRetire, c.fetchReady
		curFetchLine, lineMask    = c.curFetchLine, c.lineMask
		memStart, memPos          = c.memStart, c.memPos
		regReady                  = &c.regReady
	)
	for x := range recs {
		rec := &recs[x]

		// Fetch: one I$ access per new line. A taken branch to another
		// line redirects fetch; sequential flow within a line is free.
		line := rec.PC & lineMask
		if line != curFetchLine {
			curFetchLine = line
			lat := h.Fetch(rec.PC)
			if lat > 1 {
				// A fetch stall delays instruction availability.
				fetchReady += uint64(lat - 1)
			}
		}

		// Dispatch: in order, bounded by fetch, the issue width, and
		// window occupancy (the slot frees when instruction i-Window
		// retires).
		d := fetchReady
		if i >= uint64(cfg.Window) {
			if r := retireAt[slot]; r > d {
				d = r
			}
		}
		if i >= uint64(cfg.IssueWidth) {
			prev := dispatchAt[issueIdx]
			if prev+1 > d {
				d = prev + 1
			}
		}
		dispatchAt[slot] = d
		if d > fetchReady {
			fetchReady = d
		}

		// Execute: start when operands are ready.
		start := d
		if r := regReady[rec.Src1]; r > start {
			start = r
		}
		if r := regReady[rec.Src2]; r > start {
			start = r
		}
		complete := start + uint64(rec.Lat)
		if rec.Kind.IsMem() && memStart != nil {
			// Port contention: delay the start until a port frees.
			if prev := memStart[memPos]; prev+1 > start {
				start = prev + 1
			}
			memStart[memPos] = start
			if memPos++; memPos == len(memStart) {
				memPos = 0
			}
		}
		switch rec.Kind {
		case trace.Load:
			c.res.Loads++
			complete = start + uint64(h.Data(rec.Mem, false))
		case trace.Store:
			c.res.Stores++
			// Stores retire through a write buffer: the D$ sees the
			// access (for refill and statistics) but the pipeline does
			// not wait for it.
			h.Data(rec.Mem, true)
			complete = start + uint64(rec.Lat)
		}
		if rec.Dst != 0 {
			regReady[rec.Dst] = complete
		}

		// Retire: in order, RetireWidth per cycle.
		r := complete
		if lastRetire > r {
			r = lastRetire
		}
		if i >= uint64(cfg.RetireWidth) {
			prev := retireAt[retireIdx]
			if prev+1 > r {
				r = prev + 1
			}
		}
		retireAt[slot] = r
		lastRetire = r
		if slot++; slot == cfg.Window {
			slot = 0
		}
		if issueIdx++; issueIdx == cfg.Window {
			issueIdx = 0
		}
		if retireIdx++; retireIdx == cfg.Window {
			retireIdx = 0
		}
		i++
	}
	c.i = i
	c.slot, c.issueIdx, c.retireIdx = slot, issueIdx, retireIdx
	c.lastRetire, c.fetchReady = lastRetire, fetchReady
	c.curFetchLine, c.memPos = curFetchLine, memPos
}

// Result reports the run over every record stepped so far.
func (c *Core) Result() Result {
	res := c.res
	res.Instructions = c.i
	res.Cycles = c.lastRetire + 1
	return res
}

// runChunk is how many records Run reads from a stream that is not a
// SliceStream before stepping them.
const runChunk = 4096

// Run executes up to maxInstr records of st against h and returns the
// timing result: a Core fed the whole stream, one record at a time
// (Step). A frame pays for itself across the engines of a trace pass
// that share it; built for one core alone, framing and stepping
// measured 10–15 % slower per instruction than Step.
func Run(st trace.Stream, h *hier.Hierarchy, cfg Config, maxInstr uint64) (Result, error) {
	c, err := New(h, cfg)
	if err != nil {
		return Result{}, err
	}
	// Direct-index fast path: a SliceStream's records are stepped in
	// place, without an interface call or a copy per instruction.
	if ss, ok := st.(*trace.SliceStream); ok {
		recs := ss.Rest()
		if maxInstr < uint64(len(recs)) {
			recs = recs[:maxInstr]
		}
		c.Step(recs)
		ss.Skip(len(recs))
		return c.Result(), nil
	}
	buf := make([]trace.Record, min(maxInstr, runChunk))
	for left := maxInstr; left > 0; {
		want := min(left, uint64(len(buf)))
		n := uint64(0)
		for ; n < want; n++ {
			rec, ok := st.Next()
			if !ok {
				break
			}
			buf[n] = rec
		}
		c.Step(buf[:n])
		if n < want {
			break
		}
		left -= n
	}
	return c.Result(), nil
}
