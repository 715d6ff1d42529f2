// Package vm models the virtual-memory machinery behind the paper's
// §6.8 discussion of virtually- vs physically-addressed caches.
//
// The B-Cache needs three tag bits *no later than* the set index, because
// they feed the programmable decoder. In a virtually-indexed,
// physically-tagged (V/P) cache those bits would normally come out of the
// TLB too late. The paper's answer is to treat them as part of the
// virtual index — which is exact when the OS page allocator preserves the
// low bits of the frame number (page coloring), and a benign virtual
// index otherwise.
//
// This package provides the pieces to demonstrate that: an address space
// with pluggable page-allocation policies (coloring vs. arbitrary), a
// small fully-associative TLB, and a VIPT translation that keeps an
// access's low, indexing bits virtual and takes the bits above from its
// physical address.
package vm

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/rng"
)

// AllocPolicy selects how physical frames are assigned to virtual pages.
type AllocPolicy int

// Allocation policies.
const (
	// Colored preserves the low ColorBits of the virtual page number in
	// the physical frame number (page coloring): the bits the B-Cache's
	// PD borrows are then identical in virtual and physical addresses.
	Colored AllocPolicy = iota
	// Arbitrary assigns frames pseudo-randomly, the worst case for a
	// virtually-indexed cache.
	Arbitrary
)

// Config shapes an AddressSpace.
type Config struct {
	PageBytes int // page size (power of two)
	// ColorBits is the number of low frame-number bits preserved under
	// the Colored policy.
	ColorBits uint
	Policy    AllocPolicy
	Seed      uint64
}

// AddressSpace lazily maps virtual pages to physical frames.
type AddressSpace struct {
	cfg      Config
	pageBits uint
	table    map[addr.Addr]addr.Addr // vpn → pfn
	used     map[addr.Addr]bool      // pfn
	src      *rng.Source
}

// NewAddressSpace validates cfg and returns an empty address space.
func NewAddressSpace(cfg Config) (*AddressSpace, error) {
	if cfg.PageBytes <= 0 || !addr.IsPow2(uint64(cfg.PageBytes)) {
		return nil, fmt.Errorf("vm: page size %d is not a positive power of two", cfg.PageBytes)
	}
	pageBits := addr.Log2(uint64(cfg.PageBytes))
	if cfg.ColorBits > addr.Bits-pageBits {
		return nil, fmt.Errorf("vm: %d color bits exceed frame number width", cfg.ColorBits)
	}
	return &AddressSpace{
		cfg:      cfg,
		pageBits: pageBits,
		table:    make(map[addr.Addr]addr.Addr),
		used:     make(map[addr.Addr]bool),
		src:      rng.New(cfg.Seed ^ 0xA11C),
	}, nil
}

// PageBits returns log2(page size).
func (as *AddressSpace) PageBits() uint { return as.pageBits }

// Pages returns the number of mapped pages.
func (as *AddressSpace) Pages() int { return len(as.table) }

// Translate maps a virtual address to its physical address, allocating a
// frame on first touch.
func (as *AddressSpace) Translate(va addr.Addr) addr.Addr {
	vpn := va >> as.pageBits
	pfn, ok := as.table[vpn]
	if !ok {
		pfn = as.allocate(vpn)
		as.table[vpn] = pfn
	}
	return pfn<<as.pageBits | addr.Field(va, 0, as.pageBits)
}

// TranslateStream appends to dst each access of src with its address
// translated, in stream order, and returns the extended slice.
func (as *AddressSpace) TranslateStream(dst, src []cache.MemAccess) []cache.MemAccess {
	for _, m := range src {
		dst = append(dst, cache.NewMemAccess(as.Translate(m.Addr()), m.Write()))
	}
	return dst
}

// allocate picks a free frame for vpn under the configured policy.
func (as *AddressSpace) allocate(vpn addr.Addr) addr.Addr {
	frameSpace := addr.Addr(1) << (addr.Bits - as.pageBits)
	for tries := 0; tries < 1<<16; tries++ {
		pfn := addr.Addr(as.src.Uint32()) % frameSpace
		if as.cfg.Policy == Colored {
			mask := addr.Addr(1)<<as.cfg.ColorBits - 1
			pfn = pfn&^mask | vpn&mask
		}
		if !as.used[pfn] {
			as.used[pfn] = true
			return pfn
		}
	}
	panic("vm: physical frame space exhausted")
}

// TLB is a small fully-associative translation buffer with LRU
// replacement.
type TLB struct {
	entries []tlbEntry
	clock   uint64
	// Hits and Misses count lookups.
	Hits   uint64
	Misses uint64
}

type tlbEntry struct {
	valid bool
	vpn   addr.Addr
	pfn   addr.Addr
	stamp uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(entries int) (*TLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("vm: TLB needs at least one entry")
	}
	return &TLB{entries: make([]tlbEntry, entries)}, nil
}

// Lookup translates va through the TLB, filling from as on a miss,
// and reports whether it hit.
func (t *TLB) Lookup(as *AddressSpace, va addr.Addr) (pa addr.Addr, hit bool) {
	vpn := va >> as.pageBits
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			t.clock++
			e.stamp = t.clock
			t.Hits++
			return e.pfn<<as.pageBits | addr.Field(va, 0, as.pageBits), true
		}
	}
	t.Misses++
	pa = as.Translate(va)
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			break
		}
		if t.entries[i].stamp < t.entries[victim].stamp {
			victim = i
		}
	}
	t.clock++
	t.entries[victim] = tlbEntry{valid: true, vpn: vpn, pfn: pa >> as.pageBits, stamp: t.clock}
	return pa, false
}

// VIPT is the address a virtually-indexed, physically-tagged cache
// sees — the §6.8 configuration: its low indexBits come from the
// virtual address, everything above from the physical address. For a
// B-Cache, indexBits should cover offset+index+log2(MF) bits: the bits
// the decoders (including the PD's borrowed tag bits) consume.
type VIPT struct {
	AS        *AddressSpace
	TLB       *TLB
	indexBits uint
}

// NewVIPT builds the translation. indexBits is the number of low
// address bits taken from the virtual address.
func NewVIPT(as *AddressSpace, tlb *TLB, indexBits uint) (*VIPT, error) {
	if as == nil || tlb == nil {
		return nil, fmt.Errorf("vm: nil component")
	}
	if indexBits >= addr.Bits {
		return nil, fmt.Errorf("vm: %d index bits exceed the address width", indexBits)
	}
	return &VIPT{AS: as, TLB: tlb, indexBits: indexBits}, nil
}

// Translate appends to dst each access of src at its hybrid
// virtual-index/physical-tag address, looking each one up in the TLB
// in stream order, and returns the extended slice.
func (v *VIPT) Translate(dst, src []cache.MemAccess) []cache.MemAccess {
	mask := addr.Addr(1)<<v.indexBits - 1
	for _, m := range src {
		va := m.Addr()
		pa, _ := v.TLB.Lookup(v.AS, va)
		dst = append(dst, cache.NewMemAccess(pa&^mask|va&mask, m.Write()))
	}
	return dst
}
