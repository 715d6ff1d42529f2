// Package cachespec is the engine registry: one table of the cache
// designs the simulator builds, and Parse, which turns a key such as
// "bc:mf8:bas8:pol0" into a Design that builds the cache at any size.
// A family has a parameter only where some caller varies it. Keys are
// canonical, one spelling per design (Parse(k).Key == k), because a
// key names a work unit's results in a checkpoint.
package cachespec

import (
	"fmt"
	"strings"

	"bcache/internal/altcache"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/rng"
	"bcache/internal/victim"
)

// Design is one buildable cache configuration.
type Design struct {
	// Key is the design's canonical key.
	Key string
	// New builds the cache with size bytes of data in line-byte lines.
	New func(size, line int) (cache.Cache, error)
	// LRUWays, when positive, marks a plain LRU set-associative cache of
	// that associativity (1 is direct-mapped), whose hit and miss counts
	// a stack-distance profile can answer instead of a replay.
	LRUWays int
	// Victim, when positive, marks a direct-mapped cache behind a victim
	// buffer of that many lines, which the same profile answers.
	Victim int
	// MF and BAS, when positive, mark an LRU B-Cache of that mapping
	// factor and associativity, which the same profile answers when
	// stackdist.BCacheProfiled(MF, BAS).
	MF, BAS int
	// Twin names the internal/lint/oraclepairs.json pair whose fast
	// type, or fast method's receiver type, the design builds, or is
	// empty.
	Twin string
}

// Blocks is the most lines the design holds at size/line: its frames,
// plus the victim buffer's lines.
func (d Design) Blocks(size, line int) int { return size/line + d.Victim }

// entry is one design family: a family without parameters has one key,
// its grammar, and builds design; one with parameters has parse.
type entry struct {
	grammar string // the key shape shown in errors; <X> is a parameter
	example string // a parameterized family's key, which the zoo tests build
	twin    string
	design  Design
	parse   func(key string) (Design, bool)
}

var table = []entry{
	{grammar: "dm", design: Design{LRUWays: 1, New: func(s, l int) (cache.Cache, error) { return cache.NewDirectMapped(s, l) }}},
	{grammar: "sa:<W>way:<lru|fifo|random>", example: "sa:8way:lru", twin: "setassoc-replay-vs-access", parse: func(key string) (Design, bool) {
		for _, kind := range []cache.PolicyKind{cache.LRU, cache.FIFO, cache.Random} {
			var ways int
			if scan(key, "sa:%dway:"+kind.String(), &ways) {
				d := Design{New: func(s, l int) (cache.Cache, error) { return cache.NewSetAssoc(s, l, ways, kind, rng.New(1)) }}
				if kind == cache.LRU {
					d.LRUWays = ways
				}
				return d, true
			}
		}
		return Design{}, false
	}},
	{grammar: "victim:<V>", example: "victim:16", twin: "victim-buffer-vs-stamp-scan", parse: func(key string) (Design, bool) {
		var entries int
		ok := scan(key, "victim:%d", &entries)
		return Design{Victim: entries, New: func(s, l int) (cache.Cache, error) {
			return victim.New(s, l, entries)
		}}, ok
	}},
	{grammar: "bc:mf<M>:bas<B>:pol<0|1>", example: "bc:mf8:bas8:pol0", twin: "swar-vs-reference", parse: func(key string) (Design, bool) {
		var mf, bas, pol int
		ok := scan(key, "bc:mf%d:bas%d:pol%d", &mf, &bas, &pol) && pol <= int(cache.Random) // pol0 LRU, pol1 random
		d := Design{New: func(s, l int) (cache.Cache, error) {
			return core.New(core.Config{SizeBytes: s, LineBytes: l, MF: mf, BAS: bas, Policy: cache.PolicyKind(pol)})
		}}
		if cache.PolicyKind(pol) == cache.LRU {
			d.MF, d.BAS = mf, bas
		}
		return d, ok
	}},
	{grammar: "hac:32", design: Design{New: func(s, l int) (cache.Cache, error) { return altcache.NewHAC(s, l) }}},
	{grammar: "column", design: Design{New: func(s, l int) (cache.Cache, error) { return altcache.NewColumn(s, l) }}},
	{grammar: "skewed2", design: Design{New: func(s, l int) (cache.Cache, error) { return altcache.NewSkewed(s, l, rng.New(1)) }}},
	{grammar: "psa", design: Design{New: func(s, l int) (cache.Cache, error) { return altcache.NewPSA(s, l, 10) }}},
	{grammar: "agac", design: Design{New: func(s, l int) (cache.Cache, error) { return altcache.NewAGAC(s, l, 32, 4096) }}},
	{grammar: "pam4", design: Design{New: func(s, l int) (cache.Cache, error) { return altcache.NewPAM(s, l, 4, 5) }}},
	{grammar: "wayhalt", design: Design{New: func(s, l int) (cache.Cache, error) { return altcache.NewWayHalt(s, l, 4, 4) }}},
}

// Parse returns the design key names. A key outside the grammar, or not
// in its canonical spelling, is an error that shows the grammar.
func Parse(key string) (Design, error) {
	for _, e := range table {
		d, ok := e.design, key == e.grammar
		if e.parse != nil {
			d, ok = e.parse(key)
		}
		if ok {
			d.Key, d.Twin = key, e.twin
			return d, nil
		}
	}
	return Design{}, fmt.Errorf("cachespec: bad cache key %q (want %s)", key, Grammar())
}

// MustParse is Parse for a key written in the program: it panics if the
// key does not parse.
func MustParse(key string) Design {
	d, err := Parse(key)
	if err != nil {
		panic(err)
	}
	return d
}

// Grammar lists every key shape, separated by " | ".
func Grammar() string {
	shapes := make([]string, len(table))
	for i, e := range table {
		shapes[i] = e.grammar
	}
	return strings.Join(shapes, " | ")
}

// scan reads key's numbers by format into ns and reports whether key is
// exactly format's spelling of them, every number non-negative: a sign,
// a leading zero or a trailing byte makes a key non-canonical.
func scan(key, format string, ns ...*int) bool {
	args := make([]any, len(ns))
	for i, n := range ns {
		args[i] = n
	}
	if _, err := fmt.Sscanf(key, format, args...); err != nil {
		return false
	}
	for i, n := range ns {
		if *n < 0 {
			return false
		}
		args[i] = *n
	}
	return fmt.Sprintf(format, args...) == key
}
