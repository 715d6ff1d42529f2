package stackdist

import (
	"fmt"

	"bcache/internal/addr"
)

// Geom names one cache shape a Profile must answer: a power-of-two set
// count and an associativity, LRU throughout. Capacity is Sets*Ways
// lines. A positive Victim puts a Victim-line victim buffer behind a
// direct-mapped (Ways 1) array of Sets lines.
type Geom struct {
	Sets   int
	Ways   int
	Victim int
}

// Profile profiles one address stream at several set-index
// granularities simultaneously, deriving hit/miss counts for every
// requested LRU (sets, ways) geometry of at most MaxWays ways — and any
// smaller associativity at the same set counts — from a single pass. Geometries sharing a set
// count share one Profiler. Victim geometries sharing a set count share
// one victim level, which answers every buffer depth up to the largest
// requested and reads its direct-mapped array off the Profiler at that
// set count; a set count only victim geometries ask for gets a one-way
// Profiler that Misses does not answer.
type Profile struct {
	lineShift uint
	profs     []*Profiler // ascending by set count
	// bySets holds the profilers of the LRU geometries, by set count.
	bySets  map[int]*Profiler
	victims []*victimLevel // ascending by set count
	total   uint64
}

// NewProfile builds a profile for streams of byte addresses with the
// given line size, able to answer every geometry in geoms. An LRU
// geometry wider than MaxWays ways is an error.
func NewProfile(lineBytes int, geoms []Geom) (*Profile, error) {
	if lineBytes <= 0 || !addr.IsPow2(uint64(lineBytes)) {
		return nil, fmt.Errorf("stackdist: line size %d is not a positive power of two", lineBytes)
	}
	if len(geoms) == 0 {
		return nil, fmt.Errorf("stackdist: no geometries")
	}
	maxWays, maxVictim := map[int]int{}, map[int]int{}
	for _, g := range geoms {
		if g.Ways <= 0 {
			return nil, fmt.Errorf("stackdist: non-positive ways %d", g.Ways)
		}
		switch {
		case g.Victim < 0:
			return nil, fmt.Errorf("stackdist: negative victim buffer size %d", g.Victim)
		case g.Victim > 0 && g.Ways != 1:
			return nil, fmt.Errorf("stackdist: victim buffer behind a %d-way array; only direct-mapped is profiled", g.Ways)
		case g.Victim > 0 && (g.Sets <= 0 || !addr.IsPow2(uint64(g.Sets))):
			return nil, fmt.Errorf("stackdist: set count %d is not a positive power of two", g.Sets)
		case g.Victim > 0:
			maxVictim[g.Sets] = max(maxVictim[g.Sets], g.Victim)
		default:
			maxWays[g.Sets] = max(maxWays[g.Sets], g.Ways)
		}
	}
	p := &Profile{
		lineShift: addr.Log2(uint64(lineBytes)),
		bySets:    make(map[int]*Profiler, len(maxWays)),
	}
	all := make(map[int]*Profiler, len(maxWays)+len(maxVictim))
	for sets, ways := range maxWays {
		pr, err := NewProfiler(sets, ways)
		if err != nil {
			return nil, err
		}
		p.bySets[sets], all[sets] = pr, pr
	}
	for sets := range maxVictim {
		if all[sets] == nil {
			pr, err := NewProfiler(sets, 1)
			if err != nil {
				return nil, err
			}
			all[sets] = pr
		}
	}
	for sets := 1; len(p.profs) < len(all); sets *= 2 {
		if pr, ok := all[sets]; ok {
			p.profs = append(p.profs, pr)
		}
		if entries, ok := maxVictim[sets]; ok {
			p.victims = append(p.victims, newVictimLevel(all[sets], entries))
		}
	}
	return p, nil
}

// Access records one byte-address access with every victim level and
// every profiler. The victim levels go first: each reads its array's
// occupant off a profiler before the profiler moves block to the top.
func (p *Profile) Access(a addr.Addr) {
	block := a >> p.lineShift
	p.total++
	for _, v := range p.victims {
		v.access(block)
	}
	for _, pr := range p.profs {
		pr.Access(block)
	}
}

// Accesses returns the number of recorded accesses.
func (p *Profile) Accesses() uint64 { return p.total }

// Misses returns the miss count a (sets, ways) LRU cache would record
// over the profiled stream. The set count must be one of the profiled
// granularities and ways within its tracked range.
func (p *Profile) Misses(sets, ways int) (uint64, error) {
	pr, ok := p.bySets[sets]
	if !ok {
		return 0, fmt.Errorf("stackdist: set count %d was not profiled", sets)
	}
	return pr.Misses(ways)
}

// VictimMisses returns the misses and the buffer hits a direct-mapped
// cache of sets lines behind an entries-line victim buffer would record
// over the profiled stream; a buffer hit counts as a hit. A victim
// geometry at that set count must have been requested with at least
// entries lines.
func (p *Profile) VictimMisses(sets, entries int) (misses, bufferHits uint64, err error) {
	for _, v := range p.victims {
		if v.prof.Sets() == sets {
			return v.result(entries)
		}
	}
	return 0, 0, fmt.Errorf("stackdist: no victim buffer was profiled at set count %d", sets)
}
