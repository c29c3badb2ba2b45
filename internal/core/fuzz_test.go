package core

import (
	"testing"

	"resilientmix/internal/session"
	"resilientmix/internal/sim"
)

// FuzzDecodeAppMsg feeds arbitrary bytes to both of the simulator
// driver's application entry points — a payload delivered through an
// onion path to the responder's Receiver, and a reverse-path payload
// handed to the Session — which must never panic, must deliver nothing
// the codec rejects, and must deliver at most one message per payload. (The
// codec itself is fuzzed in internal/session.)
func FuzzDecodeAppMsg(f *testing.F) {
	seg := session.Segment{MID: 1, Index: 0, Total: 4, Needed: 2, Data: []byte("d")}
	f.Add(seg.Encode(session.KindSegment))
	f.Add(session.Ack{MID: 2, Index: 1}.Encode(session.KindSegAck))
	f.Add(session.Segment{MID: 3, Index: 0, Total: 2, Needed: 1, Data: []byte("r")}.Encode(session.KindRespSeg))
	f.Add(session.Ack{MID: 4, Index: 0}.Encode(session.KindProbe))
	f.Add(session.EncodeRegister(5))
	f.Add(session.ServiceSegment{Kind: session.KindToService, Tag: 6, Segment: session.Segment{MID: 7, Total: 2, Needed: 1, Data: []byte("s")}}.Encode())
	f.Add([]byte{})
	f.Add([]byte{99, 1, 2, 3})

	w, err := NewWorld(WorldConfig{N: 8, Seed: 1, UniformRTT: 10 * sim.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	s, err := w.NewSession(0, 1, Params{Protocol: CurMix})
	if err != nil {
		f.Fatal(err)
	}
	s.Establish()
	w.Run(sim.Minute)
	if !s.Established() {
		f.Fatal("establishment failed")
	}
	recv := w.Receivers[1]
	f.Fuzz(func(t *testing.T, data []byte) {
		delivered := recv.Delivered()
		if err := w.Nodes[0].Initiator.SendData(s.paths[0], data, nil); err != nil {
			t.Fatal(err)
		}
		w.Run(w.Eng.Now() + sim.Second)
		if recv.Delivered() > delivered+1 {
			t.Fatalf("one payload delivered %d messages", recv.Delivered()-delivered)
		}
		if _, err := session.DecodeApp(data); err != nil && recv.Delivered() != delivered {
			t.Fatal("a payload the codec rejects was delivered")
		}
		s.handleReverse(data, nil)
	})
}
