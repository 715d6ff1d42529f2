package obs

import (
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/hier"
	"bcache/internal/victim"
)

// stride produces addresses that conflict in a 16 kB direct-mapped cache
// (same index, different tags) to force evictions and PD churn.
func conflictAddrs(n int) []addr.Addr {
	out := make([]addr.Addr, n)
	for i := range out {
		out[i] = addr.Addr(i%7) * 16384 // 7 tags rotating through one set region
	}
	return out
}

func TestCountersMatchStats(t *testing.T) {
	c, err := cache.NewDirectMapped(16*1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	var p Counters
	if !cache.AttachProbe(c, &p) {
		t.Fatal("SetAssoc does not accept probes")
	}
	for i, a := range conflictAddrs(10000) {
		c.Access(a, i%3 == 0)
	}
	st := c.Stats()
	if p.Accesses != st.Accesses || p.Hits != st.Hits || p.Misses != st.Misses {
		t.Fatalf("probe %+v disagrees with stats %+v", p, st)
	}
	if p.Writes != st.Writes {
		t.Fatalf("probe writes %d != stats writes %d", p.Writes, st.Writes)
	}
	if p.Evictions != st.Evictions || p.DirtyEvictions != st.Writebacks {
		t.Fatalf("probe evictions %d/%d != stats %d/%d",
			p.Evictions, p.DirtyEvictions, st.Evictions, st.Writebacks)
	}
	if p.MissRate() != st.MissRate() {
		t.Fatalf("miss rate %v != %v", p.MissRate(), st.MissRate())
	}
}

func TestCountersPDEventsOnBCache(t *testing.T) {
	bc, err := core.New(core.Config{SizeBytes: 16 * 1024, LineBytes: 32, MF: 8, BAS: 8, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	var p Counters
	bc.SetProbe(&p)
	for _, a := range conflictAddrs(10000) {
		bc.Access(a, false)
	}
	pd := bc.PDStats()
	// ObservePD fires only on misses: PDHits counts forced-victim misses.
	if p.PDHits != pd.MissPDHit {
		t.Fatalf("probe PD hits-during-miss %d, stats say %d", p.PDHits, pd.MissPDHit)
	}
	if p.PDMisses != pd.MissPDMiss {
		t.Fatalf("probe PD misses %d, stats say %d", p.PDMisses, pd.MissPDMiss)
	}
	if p.Reprograms != pd.Programmed {
		t.Fatalf("probe reprograms %d, stats say %d", p.Reprograms, pd.Programmed)
	}
	if p.Reprograms == 0 {
		t.Fatal("conflict stream produced no reprogramming events")
	}
}

func TestCountersOnVictimCache(t *testing.T) {
	vc, err := victim.New(16*1024, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	var p Counters
	if !cache.AttachProbe(vc, &p) {
		t.Fatal("victim cache does not accept probes")
	}
	for _, a := range conflictAddrs(5000) {
		vc.Access(a, true)
	}
	st := vc.Stats()
	if p.Accesses != st.Accesses || p.Hits != st.Hits || p.Misses != st.Misses {
		t.Fatalf("probe %+v disagrees with stats %+v", p, st)
	}
	if p.Evictions != st.Evictions {
		t.Fatalf("probe evictions %d != stats %d", p.Evictions, st.Evictions)
	}
}

func TestHierarchyWritebackEvents(t *testing.T) {
	ic, _ := cache.NewDirectMapped(16*1024, 32)
	dc, _ := cache.NewDirectMapped(16*1024, 32)
	h, err := hier.New(ic, dc, hier.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var p Counters
	h.SetProbe(&p)
	// Dirty a line, then conflict it out: one writeback must be observed.
	for _, a := range conflictAddrs(5000) {
		h.Data(a, true)
	}
	if p.Writebacks == 0 {
		t.Fatal("no writeback events observed")
	}
	if p.Writebacks != h.L1Writebacks {
		t.Fatalf("probe writebacks %d != hierarchy %d", p.Writebacks, h.L1Writebacks)
	}
}

func TestAttachProbeDetach(t *testing.T) {
	c, _ := cache.NewDirectMapped(1024, 32)
	var p Counters
	cache.AttachProbe(c, &p)
	c.Access(0, false)
	cache.AttachProbe(c, nil)
	c.Access(0, false)
	if p.Accesses != 1 {
		t.Fatalf("probe saw %d accesses after detach, want 1", p.Accesses)
	}
}
