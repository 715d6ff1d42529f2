package distrun

import (
	"encoding/json"
	"io"
	"path/filepath"
	"testing"

	"bcache/internal/dist"
	"bcache/internal/experiment"
)

// TestWorkerGeneratesEachTraceOnceAcrossLeases drives one in-process
// worker through the whole registry's plan lease by lease, as the
// coordinator grants them, playing coordinator over pipes. A lease is
// one trace group (the registry's 26 groups hold 54–138 units each),
// and the worker runs it as one pass, so it runs the generator once per
// trace: 26 times, as an in-process campaign does.
func TestWorkerGeneratesEachTraceOnceAcrossLeases(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every unit of the registry")
	}
	opts := experiment.DefaultOpts()
	opts.Instructions = 120_000
	plan, err := experiment.PlanCampaign(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(SpecFor(opts, nil))
	if err != nil {
		t.Fatal(err)
	}
	experiment.ResetTraceCache()
	defer experiment.ResetTraceCache()
	experiment.ResetUnitMemo()

	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	code := make(chan int, 1)
	go func() {
		defer outW.Close()
		code <- WorkerMain(inR, outW, nil, t.Logf)
	}()
	enc, dec := json.NewEncoder(inW), json.NewDecoder(outR)
	send := func(m dist.Msg) {
		t.Helper()
		if err := enc.Encode(m); err != nil {
			t.Fatalf("send %s: %v", m.Type, err)
		}
	}
	recv := func() dist.Msg {
		t.Helper()
		var m dist.Msg
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("recv: %v", err)
		}
		return m
	}

	send(dist.Msg{Type: dist.MsgInit, Proto: dist.ProtoVersion, Spec: spec,
		ShardPath: filepath.Join(t.TempDir(), "shard-000-000.bin"), Fingerprint: plan.Fingerprint(), Units: plan.Len()})
	if hello := recv(); hello.Type != dist.MsgHello || hello.Err != "" {
		t.Fatalf("hello = %+v", hello)
	}
	results := 0
	for g := 0; g < plan.Len(); g++ {
		id := g + 1
		send(dist.Msg{Type: dist.MsgLease, Lease: id, Start: g, End: g + 1})
		for m := recv(); m.Type != dist.MsgLeaseDone; m = recv() {
			if m.Type != dist.MsgResult {
				t.Fatalf("lease %d: unexpected %q (%s)", id, m.Type, m.Err)
			}
			results++
		}
	}
	send(dist.Msg{Type: dist.MsgShutdown})
	if bye := recv(); bye.Type != dist.MsgBye {
		t.Fatalf("bye = %+v", bye)
	}
	if c := <-code; c != 0 {
		t.Fatalf("worker exited %d", c)
	}
	inW.Close()
	if results != plan.Len() {
		t.Fatalf("%d results for %d groups", results, plan.Len())
	}
	if g := experiment.TraceCacheStats().Generations; g != 26 {
		t.Fatalf("worker ran the generator %d times for the registry's 26 traces", g)
	}
}
