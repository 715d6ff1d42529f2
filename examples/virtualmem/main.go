// Virtualmem demonstrates the paper's two virtual-memory angles on one
// workload:
//
//  1. §6.8 — the B-Cache's programmable decoder needs three tag bits no
//     later than the index. With OS page coloring that preserves those
//     bits, a virtually-indexed, physically-tagged B-Cache behaves
//     exactly like a physically-indexed one.
//
//  2. §7.1 — the software alternative: a Cache Miss Lookaside buffer
//     detects conflicting pages and the OS recolors them, making a plain
//     direct-mapped cache behave "nearly as well as a two-way" — while
//     the B-Cache does better entirely in hardware.
//
//     go run ./examples/virtualmem [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/trace"
	"bcache/internal/vm"
	"bcache/internal/workload"
)

const (
	l1Size    = 16 * 1024
	l1Line    = 32
	pageBytes = 4096
	instrs    = 1_500_000
)

func main() {
	bench := "equake"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	p, err := workload.ByName(bench)
	if err != nil {
		log.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		log.Fatal(err)
	}
	var accs []cache.MemAccess
	for i := 0; i < instrs; i++ {
		rec, _ := g.Next()
		if rec.Kind.IsMem() {
			accs = append(accs, cache.NewMemAccess(rec.Mem, rec.Kind == trace.Store))
		}
	}
	fmt.Printf("%s: %d data accesses, %d-byte pages\n\n", bench, len(accs), pageBytes)

	// --- Part 1: VIPT B-Cache with page coloring (§6.8) ---
	// The decoders consume address bits [0, indexBits): offset + index +
	// log2(MF) = 5+9+3 = 17 bits. Coloring must preserve every one of
	// them that lies above the page offset: 17−12 = 5 frame bits.
	const indexBits = 17
	const colorBits = indexBits - 12 // log2(pageBytes) = 12
	colored, err := vm.NewAddressSpace(vm.Config{
		PageBytes: pageBytes, ColorBits: colorBits, Policy: vm.Colored, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	mkBC := func() *core.BCache {
		bc, err := core.New(core.Config{
			SizeBytes: l1Size, LineBytes: l1Line, MF: 8, BAS: 8, Policy: cache.LRU,
		})
		if err != nil {
			log.Fatal(err)
		}
		return bc
	}
	pipt := mkBC()
	cache.Replay(pipt, colored.TranslateStream(nil, accs), nil)
	tlb, err := vm.NewTLB(64)
	if err != nil {
		log.Fatal(err)
	}
	vipt, err := vm.NewVIPT(colored, tlb, indexBits)
	if err != nil {
		log.Fatal(err)
	}
	viptBC := mkBC()
	cache.Replay(viptBC, vipt.Translate(nil, accs), nil)
	fmt.Println("§6.8 — virtually-indexed, physically-tagged B-Cache:")
	fmt.Printf("  physically indexed : %6.2f%% miss\n", 100*pipt.Stats().MissRate())
	fmt.Printf("  VIPT + coloring    : %6.2f%% miss  (TLB miss %.2f%%)\n",
		100*viptBC.Stats().MissRate(),
		100*float64(tlb.Misses)/float64(tlb.Hits+tlb.Misses))
	if pipt.Stats().Misses == viptBC.Stats().Misses {
		fmt.Println("  → identical, as §6.8 predicts: coloring preserves the PD's bits")
	}

	// --- Part 2: OS page recoloring vs the B-Cache (§7.1) ---
	run := func(recolor bool) (float64, uint64) {
		as, err := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, Policy: vm.Arbitrary, Seed: 2})
		if err != nil {
			log.Fatal(err)
		}
		dm, err := cache.NewDirectMapped(l1Size, l1Line)
		if err != nil {
			log.Fatal(err)
		}
		var rc *vm.Recolorer
		if recolor {
			rc, err = vm.NewRecolorer(as, l1Size, 24)
			if err != nil {
				log.Fatal(err)
			}
		}
		for _, a := range accs {
			pa := as.Translate(a.Addr())
			if rc != nil {
				rc.Note(a.Addr(), pa)
			}
			if !dm.Access(pa, a.Write()).Hit && rc != nil {
				rc.OnMiss(pa)
			}
		}
		var remaps uint64
		if rc != nil {
			remaps = rc.Remaps
		}
		return dm.Stats().MissRate(), remaps
	}
	plain, _ := run(false)
	recolored, remaps := run(true)

	w2, _ := cache.NewSetAssoc(l1Size, l1Line, 2, cache.LRU, nil)
	bc := mkBC()
	as, _ := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, Policy: vm.Arbitrary, Seed: 2})
	phys := as.TranslateStream(nil, accs)
	cache.Replay(w2, phys, nil)
	cache.Replay(bc, phys, nil)

	fmt.Println("\n§7.1 — software recoloring vs hardware balancing:")
	fmt.Printf("  direct-mapped          : %6.2f%% miss\n", 100*plain)
	fmt.Printf("  DM + CML recoloring    : %6.2f%% miss  (%d pages moved)\n", 100*recolored, remaps)
	fmt.Printf("  2-way (the paper's bar): %6.2f%% miss\n", 100*w2.Stats().MissRate())
	fmt.Printf("  B-Cache MF=8 BAS=8     : %6.2f%% miss\n", 100*bc.Stats().MissRate())
}
