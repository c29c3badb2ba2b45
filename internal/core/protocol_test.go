package core

import (
	"bytes"
	"testing"

	"resilientmix/internal/session"
	"resilientmix/internal/sessiontest"
	"resilientmix/internal/sim"
)

func TestParamsValidate(t *testing.T) {
	good := []Params{
		{Protocol: CurMix},
		{Protocol: SimRep, K: 2},
		{Protocol: SimRep, R: 2}, // SimRep(r) implies k = r
		{Protocol: SimEra, K: 4, R: 2},
		{Protocol: SimEra, K: 4, R: 4},
		{Protocol: SimEra, K: 8, R: 2, SegmentsPerPath: 3},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", p, err)
		}
	}
	bad := []Params{
		{Protocol: SimEra, K: 5, R: 2}, // k not multiple of r
		{Protocol: SimEra, K: 4, R: 0}, // r missing
		{Protocol: SimEra, K: 4, R: 2, L: -1},
		{Protocol: Protocol(9), K: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{Protocol: CurMix}.withDefaults()
	if p.K != 1 || p.R != 1 || p.L != DefaultL || p.AckTimeout != DefaultAckTimeout {
		t.Fatalf("CurMix defaults = %+v", p)
	}
	p = Params{Protocol: SimRep, R: 3}.withDefaults()
	if p.K != 3 || p.R != 3 {
		t.Fatalf("SimRep(r=3) defaults = %+v", p)
	}
	if p.MaxEstablishAttempts != 1 {
		t.Fatalf("default attempts = %d", p.MaxEstablishAttempts)
	}
}

func TestCodeShapes(t *testing.T) {
	cases := []struct {
		p         Params
		m, n, min int
	}{
		{Params{Protocol: CurMix}, 1, 1, 1},
		{Params{Protocol: SimRep, K: 2}, 1, 2, 1},
		{Params{Protocol: SimEra, K: 4, R: 2}, 2, 4, 2},
		{Params{Protocol: SimEra, K: 4, R: 4}, 1, 4, 1},
		{Params{Protocol: SimEra, K: 20, R: 4}, 5, 20, 5},
		{Params{Protocol: SimEra, K: 4, R: 2, SegmentsPerPath: 3}, 6, 12, 2},
	}
	for _, c := range cases {
		p := c.p.withDefaults()
		m, n := p.codeShape()
		if m != c.m || n != c.n {
			t.Errorf("%v k=%d r=%d s=%d: shape (%d,%d), want (%d,%d)",
				p.Protocol, p.K, p.R, p.SegmentsPerPath, m, n, c.m, c.n)
		}
		if got := p.MinPaths(); got != c.min {
			t.Errorf("%v k=%d r=%d: MinPaths %d, want %d", p.Protocol, p.K, p.R, got, c.min)
		}
		code, err := c.p.Code()
		if err != nil {
			t.Errorf("Code: %v", err)
			continue
		}
		if code.M() != c.m || code.N() != c.n {
			t.Errorf("built code shape (%d,%d)", code.M(), code.N())
		}
	}
}

func TestSimEraToleratesPaperFailureBound(t *testing.T) {
	// §4.10: SimEra tolerates up to k(1-1/r) path failures.
	for _, c := range []struct{ k, r int }{{4, 2}, {8, 2}, {12, 3}, {20, 4}} {
		p := Params{Protocol: SimEra, K: c.k, R: c.r}.withDefaults()
		tolerated := c.k - p.MinPaths()
		want := c.k * (c.r - 1) / c.r // k(1 - 1/r)
		if tolerated != want {
			t.Errorf("k=%d r=%d: tolerates %d failures, paper says %d", c.k, c.r, tolerated, want)
		}
	}
}

func TestProtocolStrings(t *testing.T) {
	if CurMix.String() != "CurMix" || SimRep.String() != "SimRep" || SimEra.String() != "SimEra" {
		t.Error("protocol names wrong")
	}
	if Protocol(42).String() == "" {
		t.Error("unknown protocol has empty name")
	}
}

func TestSegmentEncodingRoundTrip(t *testing.T) {
	seg := session.Segment{MID: 7, Index: 2, Total: 8, Needed: 4, Data: []byte{1, 2, 3}}
	m, err := session.DecodeApp(seg.Encode(session.KindSegment))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != session.KindSegment || m.Seg.MID != 7 || m.Seg.Index != 2 || m.Seg.Total != 8 ||
		m.Seg.Needed != 4 || string(m.Seg.Data) != string([]byte{1, 2, 3}) {
		t.Fatalf("decoded %+v", m.Seg)
	}
	// The static model (static.go) prices a segment by this overhead.
	if got := len(seg.Encode(session.KindSegment)); got != session.SegmentOverhead+3 {
		t.Fatalf("encoded size %d, want %d", got, session.SegmentOverhead+3)
	}

	ack := session.Ack{MID: 9, Index: 1}
	m, err = session.DecodeApp(ack.Encode(session.KindSegAck))
	if err != nil || m.Kind != session.KindSegAck || m.Ack != ack {
		t.Fatalf("ack round trip: %+v, %v", m, err)
	}

	resp := session.Segment{MID: 11, Index: 0, Total: 4, Needed: 2, Data: []byte("r")}
	m, err = session.DecodeApp(resp.Encode(session.KindRespSeg))
	if err != nil || m.Kind != session.KindRespSeg || m.Seg.MID != 11 || string(m.Seg.Data) != "r" {
		t.Fatalf("resp round trip: %+v, %v", m, err)
	}
}

func TestDecodeAppMsgRejectsGarbage(t *testing.T) {
	if _, err := session.DecodeApp([]byte{99, 0, 0}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := session.DecodeApp(nil); err == nil {
		t.Error("empty message accepted")
	}
	// Trailing garbage after a valid ack.
	b := append(session.Ack{MID: 1, Index: 0}.Encode(session.KindSegAck), 0xff)
	if _, err := session.DecodeApp(b); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestValidCodeShape(t *testing.T) {
	if !session.ValidCodeShape(1, 1) || !session.ValidCodeShape(4, 8) {
		t.Error("valid shapes rejected")
	}
	for _, c := range []struct{ m, n int32 }{{0, 4}, {5, 4}, {1, 300}, {-1, 2}} {
		if session.ValidCodeShape(c.m, c.n) {
			t.Errorf("shape (%d,%d) accepted", c.m, c.n)
		}
	}
}

func TestWorldConfigValidation(t *testing.T) {
	if _, err := NewWorld(WorldConfig{N: 2}); err == nil {
		t.Error("tiny world accepted")
	}
	if _, err := NewWorld(WorldConfig{N: 8, Membership: MembershipMode(9)}); err == nil {
		t.Error("unknown membership mode accepted")
	}
}

func TestSessionValidation(t *testing.T) {
	w, err := NewWorld(WorldConfig{N: 8, Seed: 1, UniformRTT: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.NewSession(0, 0, Params{Protocol: CurMix}); err == nil {
		t.Error("self-session accepted")
	}
	if _, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 3, R: 2}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestReceiverReassemblyCases runs the shared arrival-sequence table
// through the simulator driver's entry point: every segment travels an
// onion path to the responder's Receiver.
func TestReceiverReassemblyCases(t *testing.T) {
	w := testWorld(t, 16, 27)
	s, err := w.NewSession(0, 1, Params{Protocol: CurMix})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	var delivered [][]byte
	w.Receivers[1].SetOnDelivered(func(_ uint64, data []byte, _ sim.Time) { delivered = append(delivered, bytes.Clone(data)) })
	for _, tc := range sessiontest.ReassemblyCases() {
		t.Run(tc.Name, func(t *testing.T) {
			delivered = nil
			for _, seg := range tc.Segments {
				if err := w.Nodes[0].Initiator.SendData(s.paths[0], seg.Encode(session.KindSegment), nil); err != nil {
					t.Fatal(err)
				}
				w.Run(w.Eng.Now() + sim.Second)
			}
			if err := tc.Check(delivered); err != nil {
				t.Fatal(err)
			}
		})
	}
}
