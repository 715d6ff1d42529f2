package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/stats"
	"bcache/internal/victim"
)

// SchemaVersion identifies the run-report JSON layout. Bump it on any
// breaking change to the Report structure so downstream diff tooling can
// refuse mixed-version comparisons.
const SchemaVersion = 1

// Report is one simulation run as a machine-readable artifact: what ran,
// what the totals were, how balanced the sets ended up, how fast the
// simulator went, and how the run evolved over time. It is the payload
// of `bcachesim -report`.
type Report struct {
	SchemaVersion int          `json:"schemaVersion"`
	Config        RunConfig    `json:"config"`
	Totals        Totals       `json:"totals"`
	PD            *PDTotals    `json:"pd,omitempty"`
	Fault         *FaultTotals `json:"fault,omitempty"`
	Balance       *Balance     `json:"balance,omitempty"`
	Throughput    *Throughput  `json:"throughput,omitempty"`
	Series        []Series     `json:"series,omitempty"`
	Samples       []Sample     `json:"samples,omitempty"`
	Heatmap       *Heatmap     `json:"heatmap,omitempty"`
}

// RunConfig identifies the simulated configuration.
type RunConfig struct {
	Cache     string `json:"cache"`
	Benchmark string `json:"benchmark,omitempty"`
	Side      string `json:"side,omitempty"`
	SizeBytes int    `json:"sizeBytes"`
	LineBytes int    `json:"lineBytes"`
	Ways      int    `json:"ways"`
	Sets      int    `json:"sets"`
	Frames    int    `json:"frames"`
	// Instructions is the simulated instruction count (0 when the run was
	// driven by raw accesses rather than an instruction stream).
	Instructions uint64 `json:"instructions,omitempty"`
	// Interval is the sampler's final interval length in accesses.
	Interval uint64 `json:"interval,omitempty"`
	// Interrupted marks a run cut short by SIGINT/SIGTERM: totals and
	// series cover only the accesses simulated before the signal.
	Interrupted bool `json:"interrupted,omitempty"`
}

// FaultTotals summarizes a fault-injection run (bcachesim -fault-rate).
// The CLI fills it from the injector so obs stays independent of the
// fault package.
type FaultTotals struct {
	Rate       float64 `json:"rate"`
	Protection string  `json:"protection"`
	Seed       uint64  `json:"seed"`
	Injected   uint64  `json:"injected"`
	Silent     uint64  `json:"silent"`
	Detected   uint64  `json:"detected"`
	Corrected  uint64  `json:"corrected"`
	// ScrubPasses/ScrubRepairs count PD scrubber activity; Degraded
	// reports the cache ended the run in direct-mapped fallback.
	ScrubPasses  uint64 `json:"scrubPasses"`
	ScrubRepairs uint64 `json:"scrubRepairs"`
	Degraded     bool   `json:"degraded"`
	// Invariant is the final CheckInvariants result ("" = clean).
	Invariant string `json:"invariant,omitempty"`
}

// Totals are the run-end aggregate counters.
type Totals struct {
	Accesses   uint64  `json:"accesses"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Reads      uint64  `json:"reads"`
	Writes     uint64  `json:"writes"`
	Evictions  uint64  `json:"evictions"`
	Writebacks uint64  `json:"writebacks"`
	MissRate   float64 `json:"missRate"`
	// BufferHits counts hits served by the victim buffer (victim-cache
	// runs only; they are included in Hits).
	BufferHits uint64 `json:"bufferHits,omitempty"`
}

// PDTotals are the programmable-decoder aggregates (B-Cache runs only).
type PDTotals struct {
	HitPD             uint64  `json:"hitPD"`
	MissPDHit         uint64  `json:"missPDHit"`
	MissPDMiss        uint64  `json:"missPDMiss"`
	Programmed        uint64  `json:"programmed"`
	HitRateDuringMiss float64 `json:"hitRateDuringMiss"`
}

// Balance is the §6.4 set-usage classification (stats.Analyze) with a
// stable JSON shape.
type Balance struct {
	FreqHitSets        float64 `json:"freqHitSets"`
	HitsInFreqSets     float64 `json:"hitsInFreqSets"`
	FreqMissSets       float64 `json:"freqMissSets"`
	MissesInFreqSets   float64 `json:"missesInFreqSets"`
	LessAccessedSets   float64 `json:"lessAccessedSets"`
	AccessesInLessSets float64 `json:"accessesInLessSets"`
}

// Throughput reports simulator speed (an engineering metric: how fast
// the model runs, not how fast the modelled hardware would).
type Throughput struct {
	WallSeconds           float64 `json:"wallSeconds"`
	AccessesPerSecond     float64 `json:"accessesPerSecond"`
	InstructionsPerSecond float64 `json:"instructionsPerSecond,omitempty"`
}

// Series is one named time-series over the run's access axis.
type Series struct {
	// Name identifies the quantity: "miss_rate", "pd_miss_rate",
	// "reprograms_per_kaccess", "evictions_per_kaccess".
	Name string `json:"name"`
	// Unit is "ratio" or "per_kaccess".
	Unit   string  `json:"unit"`
	Points []Point `json:"points"`
}

// Point is one sample of a series: the value over the interval ending at
// access EndAccess.
type Point struct {
	EndAccess uint64  `json:"endAccess"`
	Value     float64 `json:"value"`
}

// Heatmap is the per-set occupancy time-series: Rows[i][b] counts the
// accesses served by frame bucket b during the interval ending at
// Ends[i]. Buckets cover contiguous equal ranges of physical frames.
type Heatmap struct {
	Buckets int        `json:"buckets"`
	Ends    []uint64   `json:"ends"`
	Rows    [][]uint64 `json:"rows"`
}

// NewReport snapshots c into a report: configuration, totals, PD stats
// when c is a B-Cache, and the set-balance classification of frames,
// the run's per-frame counts, when they are non-nil and the run
// accessed the cache.
func NewReport(c cache.Cache, frames *stats.Frames) *Report {
	g := c.Geometry()
	st := c.Stats()
	r := &Report{
		SchemaVersion: SchemaVersion,
		Config: RunConfig{
			Cache:     c.Name(),
			SizeBytes: g.SizeBytes,
			LineBytes: g.LineBytes,
			Ways:      g.Ways,
			Sets:      g.Sets,
			Frames:    g.Frames,
		},
		Totals: Totals{
			Accesses:   st.Accesses,
			Hits:       st.Hits,
			Misses:     st.Misses,
			Reads:      st.Reads,
			Writes:     st.Writes,
			Evictions:  st.Evictions,
			Writebacks: st.Writebacks,
			MissRate:   st.MissRate(),
		},
	}
	if bc, ok := c.(*core.BCache); ok {
		pd := bc.PDStats()
		r.PD = &PDTotals{
			HitPD:             pd.HitPD,
			MissPDHit:         pd.MissPDHit,
			MissPDMiss:        pd.MissPDMiss,
			Programmed:        pd.Programmed,
			HitRateDuringMiss: pd.HitRateDuringMiss(),
		}
	}
	if vc, ok := c.(*victim.Cache); ok {
		r.Totals.BufferHits = vc.BufferHits
	}
	if frames == nil {
		return r
	}
	if b, err := stats.Analyze(frames); err == nil {
		r.Balance = &Balance{
			FreqHitSets:        b.FreqHitSets,
			HitsInFreqSets:     b.HitsInFreqSets,
			FreqMissSets:       b.FreqMissSets,
			MissesInFreqSets:   b.MissesInFreqSets,
			LessAccessedSets:   b.LessAccessedSets,
			AccessesInLessSets: b.AccessesInLessSets,
		}
	}
	return r
}

// AttachSampler flushes s and folds its time-series into the report:
// always miss_rate and evictions_per_kaccess, plus pd_miss_rate and
// reprograms_per_kaccess when the run emitted PD events, plus the
// occupancy heatmap when enabled.
func (r *Report) AttachSampler(s *IntervalSampler) {
	s.Flush()
	samples := s.Samples()
	r.Samples = samples
	r.Config.Interval = s.Interval()

	missRate := Series{Name: "miss_rate", Unit: "ratio", Points: make([]Point, 0, len(samples))}
	evict := Series{Name: "evictions_per_kaccess", Unit: "per_kaccess", Points: make([]Point, 0, len(samples))}
	pdMiss := Series{Name: "pd_miss_rate", Unit: "ratio", Points: make([]Point, 0, len(samples))}
	reprog := Series{Name: "reprograms_per_kaccess", Unit: "per_kaccess", Points: make([]Point, 0, len(samples))}
	var pdSeen bool
	for _, smp := range samples {
		missRate.Points = append(missRate.Points, Point{smp.EndAccess, smp.MissRate()})
		ev := 0.0
		if smp.Accesses > 0 {
			ev = 1000 * float64(smp.Evictions) / float64(smp.Accesses)
		}
		evict.Points = append(evict.Points, Point{smp.EndAccess, ev})
		pdMiss.Points = append(pdMiss.Points, Point{smp.EndAccess, smp.PDMissRate()})
		reprog.Points = append(reprog.Points, Point{smp.EndAccess, smp.ReprogramsPerKiloAccess()})
		if smp.PDHits+smp.PDMisses > 0 {
			pdSeen = true
		}
	}
	r.Series = []Series{missRate, evict}
	if pdSeen {
		r.Series = append(r.Series, pdMiss, reprog)
	}

	if heat := s.Heat(); heat != nil && len(samples) > 0 {
		ends := make([]uint64, len(samples))
		for i, smp := range samples {
			ends[i] = smp.EndAccess
		}
		r.Heatmap = &Heatmap{Buckets: s.HeatBuckets(), Ends: ends, Rows: heat}
	}
}

// SetThroughput records simulator speed over the wall-clock duration of
// the run. instructions may be 0 for access-driven runs.
func (r *Report) SetThroughput(wall time.Duration, instructions uint64) {
	sec := wall.Seconds()
	t := &Throughput{WallSeconds: sec}
	if sec > 0 {
		t.AccessesPerSecond = float64(r.Totals.Accesses) / sec
		t.InstructionsPerSecond = float64(instructions) / sec
	}
	r.Config.Instructions = instructions
	r.Throughput = t
}

// Write serializes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (0644, truncating).
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing report %s: %w", path, err)
	}
	return f.Close()
}

// Load parses and validates a report, rejecting schema mismatches so
// diff tooling never silently compares incompatible layouts.
func Load(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("obs: parsing report: %w", err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("obs: report schema v%d, this build reads v%d", r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// LoadFile reads a report from path.
func LoadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
