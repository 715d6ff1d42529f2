package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fakePlan is a deterministic in-process plan for protocol tests.
type fakePlan struct {
	n    int
	fail map[int]bool // units whose Exec errors
}

func (p fakePlan) Len() int            { return p.n }
func (p fakePlan) Fingerprint() uint64 { return uint64(0xABC0 + p.n) }
func (p fakePlan) Exec(unit int) ([]Record, error) {
	if p.fail[unit] {
		return nil, fmt.Errorf("unit %d refuses", unit)
	}
	return []Record{{
		Key: fmt.Sprintf("key-%d", unit),
		Val: json.RawMessage(fmt.Sprintf(`{"misses":%d,"accesses":%d}`, unit*10, unit*100)),
	}}, nil
}

// protoHarness runs ServeWorker over in-memory pipes and lets the test
// play coordinator by hand.
type protoHarness struct {
	t      *testing.T
	enc    *json.Encoder
	dec    *json.Decoder
	inW    io.WriteCloser
	doneC  chan struct{}
	mu     sync.Mutex
	retInt bool
	retErr error
}

func startWorker(t *testing.T, plan fakePlan, stop <-chan struct{}) *protoHarness {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	h := &protoHarness{
		t: t, enc: json.NewEncoder(inW), dec: json.NewDecoder(outR),
		inW: inW, doneC: make(chan struct{}),
	}
	go func() {
		defer close(h.doneC)
		defer outW.Close()
		interrupted, err := ServeWorker(inR, outW, WorkerConfig{
			Stop: stop,
			Build: func(spec json.RawMessage) (Plan, error) {
				var n int
				if err := json.Unmarshal(spec, &n); err != nil {
					return nil, err
				}
				if n != plan.n {
					return nil, errors.New("spec mismatch")
				}
				return plan, nil
			},
		})
		h.mu.Lock()
		h.retInt, h.retErr = interrupted, err
		h.mu.Unlock()
	}()
	return h
}

func (h *protoHarness) send(m Msg) {
	h.t.Helper()
	if err := h.enc.Encode(m); err != nil {
		h.t.Fatalf("send %s: %v", m.Type, err)
	}
}

func (h *protoHarness) recv() Msg {
	h.t.Helper()
	var m Msg
	if err := h.dec.Decode(&m); err != nil {
		h.t.Fatalf("recv: %v", err)
	}
	return m
}

// recvSkippingHeartbeats returns the next non-heartbeat message.
func (h *protoHarness) recvSkippingHeartbeats() Msg {
	for {
		m := h.recv()
		if m.Type != MsgHeartbeat {
			return m
		}
	}
}

func TestWorkerProtocolHappyPath(t *testing.T) {
	plan := fakePlan{n: 5, fail: map[int]bool{3: true}}
	shardPath := filepath.Join(t.TempDir(), "shard-000-000.bin")
	h := startWorker(t, plan, nil)

	h.send(Msg{Type: MsgInit, Proto: ProtoVersion, Spec: json.RawMessage("5"),
		ShardPath: shardPath, Fingerprint: plan.Fingerprint(), Units: plan.n})
	hello := h.recv()
	if hello.Type != MsgHello || hello.Err != "" || hello.Units != 5 || hello.Fingerprint != plan.Fingerprint() {
		t.Fatalf("hello = %+v", hello)
	}

	h.send(Msg{Type: MsgLease, Lease: 1, Start: 0, End: 5})
	var results, unitErrs []Msg
	for {
		m := h.recvSkippingHeartbeats()
		if m.Type == MsgLeaseDone {
			if m.Lease != 1 {
				t.Fatalf("leaseDone for lease %d", m.Lease)
			}
			break
		}
		switch m.Type {
		case MsgResult:
			results = append(results, m)
		case MsgUnitErr:
			unitErrs = append(unitErrs, m)
		default:
			t.Fatalf("unexpected %q mid-lease", m.Type)
		}
	}
	if len(results) != 4 || len(unitErrs) != 1 || unitErrs[0].Unit != 3 {
		t.Fatalf("got %d results, %d unitErrs (%+v)", len(results), len(unitErrs), unitErrs)
	}
	for _, m := range results {
		if len(m.Records) != 1 || m.Records[0].Key != fmt.Sprintf("key-%d", m.Unit) {
			t.Fatalf("result %d records = %+v", m.Unit, m.Records)
		}
	}

	// The shard holds exactly the successful units, in execution order —
	// written before each result went on the wire.
	payloads, err := ReadShard(shardPath, plan.Fingerprint())
	if err != nil {
		t.Fatalf("shard: %v", err)
	}
	if len(payloads) != 4 {
		t.Fatalf("shard holds %d payloads, want 4", len(payloads))
	}
	wantUnits := []int{0, 1, 2, 4}
	for i, pl := range payloads {
		if pl.Unit != wantUnits[i] {
			t.Fatalf("shard payload %d unit = %d, want %d", i, pl.Unit, wantUnits[i])
		}
	}

	h.send(Msg{Type: MsgShutdown})
	bye := h.recvSkippingHeartbeats()
	if bye.Type != MsgBye || bye.Interrupted {
		t.Fatalf("bye = %+v", bye)
	}
	<-h.doneC
	if h.retInt || h.retErr != nil {
		t.Fatalf("ServeWorker returned interrupted=%v err=%v", h.retInt, h.retErr)
	}
}

func TestWorkerRefusesFingerprintMismatch(t *testing.T) {
	plan := fakePlan{n: 3}
	h := startWorker(t, plan, nil)
	h.send(Msg{Type: MsgInit, Proto: ProtoVersion, Spec: json.RawMessage("3"),
		ShardPath: filepath.Join(t.TempDir(), "s.bin"), Fingerprint: 0xDEAD, Units: 3})
	hello := h.recv()
	if hello.Type != MsgHello || hello.Err == "" || !strings.Contains(hello.Err, "plan mismatch") {
		t.Fatalf("hello = %+v, want a refusal", hello)
	}
	<-h.doneC
	if h.retErr == nil {
		t.Fatal("ServeWorker returned nil error on fingerprint mismatch")
	}
}

func TestWorkerRefusesWrongProto(t *testing.T) {
	h := startWorker(t, fakePlan{n: 1}, nil)
	h.send(Msg{Type: MsgInit, Proto: ProtoVersion + 1, Spec: json.RawMessage("1")})
	hello := h.recv()
	if hello.Err == "" {
		t.Fatalf("hello = %+v, want a proto refusal", hello)
	}
	<-h.doneC
}

// TestWorkerDirectStopDrains: closing Stop (the SIGINT seam) makes the
// worker send an interrupted bye and report interrupted=true — the
// caller turns that into exit 130.
func TestWorkerDirectStopDrains(t *testing.T) {
	plan := fakePlan{n: 4}
	stop := make(chan struct{})
	h := startWorker(t, plan, stop)
	h.send(Msg{Type: MsgInit, Proto: ProtoVersion, Spec: json.RawMessage("4"),
		ShardPath: filepath.Join(t.TempDir(), "s.bin"), Fingerprint: plan.Fingerprint(), Units: 4})
	if hello := h.recv(); hello.Err != "" {
		t.Fatalf("hello refused: %s", hello.Err)
	}
	close(stop)
	for {
		m := h.recvSkippingHeartbeats()
		if m.Type == MsgBye {
			if !m.Interrupted {
				t.Fatal("bye not marked interrupted")
			}
			break
		}
	}
	<-h.doneC
	if !h.retInt {
		t.Fatal("ServeWorker did not report interrupted")
	}
}
