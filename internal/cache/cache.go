// Package cache implements the conventional cache models the paper
// compares against: direct-mapped, N-way set-associative, and
// fully-associative caches with pluggable replacement policies, plus the
// statistics every model reports.
//
// All caches in this repository are functional (hit/miss) models that
// also expose enough structure — per-frame accounting, evictions with
// dirty state — for the timing, energy, and set-balance analyses built on
// top of them.
package cache

import (
	"fmt"
	"math/bits"

	"bcache/internal/addr"
)

// Cache is the interface implemented by every cache model in the
// simulator (including internal/core.BCache and internal/victim.Cache).
type Cache interface {
	// Access performs one read (write=false) or write (write=true) of the
	// byte at a, allocating on miss (write-allocate, write-back).
	Access(a addr.Addr, write bool) Result

	// Contains reports whether the line holding a is present, without
	// disturbing replacement state or statistics.
	Contains(a addr.Addr) bool

	// Stats returns the live counters for this cache.
	Stats() *Stats

	// Geometry returns the cache's shape.
	Geometry() Geometry

	// Name returns a short human-readable configuration name, e.g.
	// "16kB-8way-lru" or "bcache-mf8-bas8".
	Name() string

	// Reset invalidates all lines and clears statistics.
	Reset()
}

// Geometry describes a cache's physical shape.
type Geometry struct {
	SizeBytes int // total data capacity
	LineBytes int // line (block) size
	Ways      int // associativity (1 for direct-mapped and the B-Cache)
	Sets      int // number of sets
	Frames    int // number of line frames = Sets*Ways
}

// NewGeometry validates and derives a cache shape.
// size and line must be powers of two; ways must divide size/line.
func NewGeometry(size, line, ways int) (Geometry, error) {
	switch {
	case size <= 0 || !addr.IsPow2(uint64(size)):
		return Geometry{}, fmt.Errorf("cache: size %d is not a positive power of two", size)
	case line <= 0 || !addr.IsPow2(uint64(line)):
		return Geometry{}, fmt.Errorf("cache: line size %d is not a positive power of two", line)
	case line > size:
		return Geometry{}, fmt.Errorf("cache: line size %d exceeds cache size %d", line, size)
	case ways <= 0 || !addr.IsPow2(uint64(ways)):
		return Geometry{}, fmt.Errorf("cache: associativity %d is not a positive power of two", ways)
	}
	frames := size / line
	if ways > frames {
		return Geometry{}, fmt.Errorf("cache: associativity %d exceeds %d frames", ways, frames)
	}
	return Geometry{
		SizeBytes: size,
		LineBytes: line,
		Ways:      ways,
		Sets:      frames / ways,
		Frames:    frames,
	}, nil
}

// OffsetBits returns log2(line size). NewGeometry has checked that the
// sizes are powers of two, so the field helpers count trailing zeros
// instead of validating again on every access.
func (g Geometry) OffsetBits() uint { return uint(bits.TrailingZeros(uint(g.LineBytes))) }

// IndexBits returns log2(sets).
func (g Geometry) IndexBits() uint { return uint(bits.TrailingZeros(uint(g.Sets))) }

// TagBits returns the number of address bits above offset and index.
func (g Geometry) TagBits() uint { return addr.Bits - g.OffsetBits() - g.IndexBits() }

// Block returns the line-aligned block number of a (address >> offset).
func (g Geometry) Block(a addr.Addr) addr.Addr { return a >> g.OffsetBits() }

// Index returns a's set index.
func (g Geometry) Index(a addr.Addr) int {
	return int(addr.Field(a, g.OffsetBits(), g.IndexBits()))
}

// Tag returns a's tag.
func (g Geometry) Tag(a addr.Addr) addr.Addr {
	return a >> (g.OffsetBits() + g.IndexBits())
}

func (g Geometry) String() string {
	return fmt.Sprintf("%dkB/%dB-line/%d-way", g.SizeBytes/1024, g.LineBytes, g.Ways)
}

// Result describes the outcome of one Access.
type Result struct {
	Hit bool

	// Frame is the physical frame index (0..Frames-1) that served the hit
	// or received the refill. Set-balance analysis (Table 7) keys on it.
	Frame int

	// ExtraLatency is the number of cycles this access costs beyond the
	// cache's base hit time: victim-buffer probe hits and column-
	// associative second-probe hits report 1 here. Conventional caches
	// and the B-Cache (whose defining property is one-cycle access for
	// all hits) always report 0.
	ExtraLatency int

	// Evicted reports that a valid line was displaced by this access.
	Evicted bool
	// EvictedAddr is the line-aligned address of the displaced line.
	EvictedAddr addr.Addr
	// EvictedDirty reports whether the displaced line required writeback.
	EvictedDirty bool
}
