package core

import (
	"bytes"
	"fmt"
	"testing"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/erasure"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onion"
	"resilientmix/internal/session"
	"resilientmix/internal/sim"
)

// TestSimReleasedBuffersPoisoned runs a world that reaches every place
// the simulator gives a payload buffer back — a relay dropping a
// message, the responder's probe, service, stored, duplicate and late
// segments, the rebuilt message when onDelivered returns, the
// initiator's acks, response segments (its own and not) and inbound
// segments, the partial messages a sweep forgets, a message the network
// drops, and a construction onion at its terminal relay or, with the
// segment that rode it, at the responder — with released buffers
// poisoned, and requires every payload that arrives to arrive
// byte-exact: the messages, their responses, immediate
// (Receiver.Respond inside the callback) and delayed (as
// examples/anonmail does: the mail cloned, answered replyDelay later),
// and rendezvous conversations both ways. A buffer released while
// something still reads it is overwritten, with the poison or by its
// next user, and what is read there is wrong or fails to rebuild. A
// segment that fails to decode or rebuild is dropped without a word, so
// the world runs twice, unpoisoned and poisoned, and must tally the same:
// poison can only change what a released buffer holds. The tally counts
// the paths built and replaced and the layers the relays could not
// open, too: a relay whose state kept a slice of a construction onion —
// its hop key, which Null's cipher reads where it lies — opens nothing
// once the buffer is poisoned, and the path it is on dies.
//
// SimEra(4,2) under Pareto churn with repair, and 5 % link loss once the
// path sets stand: segments are lost, late (two of four rebuild a
// message) and, in messages of the test's own, duplicated.
func TestSimReleasedBuffersPoisoned(t *testing.T) {
	clean := releasedBuffersWorld(t)
	bufpool.SetPoison(true)
	t.Cleanup(func() { bufpool.SetPoison(false) })
	if poisoned := releasedBuffersWorld(t); poisoned != clean {
		t.Errorf("poisoned run tallied %+v, unpoisoned %+v: a payload read after its release failed to decode or rebuild", poisoned, clean)
	}
}

// TestForgottenPathsPoisoned runs TestSimReleasedBuffersPoisoned's world
// — under churn and loss, its sessions repair, establishment retries
// and rendezvous use path after path — with the initiators' path
// records poisoned at Forget (onion.SetPoison): a record read after its
// Forget reads as a failed path on an invalid stream, through invalid
// relays, to no responder. A session that kept using a path it had
// released would send nothing, or to nobody, so the run must tally
// exactly what the unpoisoned run does.
func TestForgottenPathsPoisoned(t *testing.T) {
	clean := releasedBuffersWorld(t)
	onion.SetPoison(true)
	t.Cleanup(func() { onion.SetPoison(false) })
	if poisoned := releasedBuffersWorld(t); poisoned != clean {
		t.Errorf("poisoned run tallied %+v, unpoisoned %+v: a path record was read after its Forget", poisoned, clean)
	}
}

// buffersTally is what releasedBuffersWorld's run delivered, and what
// its paths and relays did.
type buffersTally struct {
	delivered, responses, delayed, served, answered int
	replaced, died                                  int
	constructed, badLayers                          uint64
	net                                             netsim.Stats
}

// releasedBuffersWorld runs TestSimReleasedBuffersPoisoned's world once,
// checking every payload that arrives, and returns its tally.
func releasedBuffersWorld(t *testing.T) buffersTally {
	t.Helper()
	const (
		initiator, responder = netsim.NodeID(0), netsim.NodeID(1)
		rz, hidden, visitor  = netsim.NodeID(2), netsim.NodeID(3), netsim.NodeID(4)
		replyDelay           = 25 * sim.Second
	)
	w, err := NewWorld(WorldConfig{
		N: 64, Seed: 5, UniformRTT: 50 * sim.Millisecond,
		Lifetime: churnLifetime(), Pinned: []netsim.NodeID{initiator, responder, rz, hidden, visitor},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartChurn(); err != nil {
		t.Fatal(err)
	}
	w.Run(40 * sim.Minute) // the first lifetimes end
	newSession := func(self, to netsim.NodeID, k int) *Session {
		s, err := w.NewSession(self, to, Params{Protocol: SimEra, K: k, R: 2, MaxEstablishAttempts: 20})
		if err != nil {
			t.Fatal(err)
		}
		if !establish(t, w, s) {
			t.Fatalf("node %d could not establish to %d", self, to)
		}
		s.EnableRepair(30 * sim.Second)
		return s
	}
	s := newSession(initiator, responder, 4)
	rendezvous := w.NewRendezvous(rz)
	service, client := newSession(hidden, rz, 2), newSession(visitor, rz, 2)
	w.Net.SetLossRate(0.05)

	// The responder answers even messages at once and odd ones, like
	// examples/anonmail, replyDelay later from a copy of the message.
	sent := make(map[uint64][]byte) // by message ID
	want := make(map[uint64][]byte) // the response each message gets
	var delivered, responses, delayed int
	w.Receivers[responder].SetOnDelivered(func(mid uint64, data []byte, _ sim.Time) {
		if !bytes.Equal(data, sent[mid]) {
			t.Errorf("message %x delivered as %q, sent as %q", mid, data, sent[mid])
		}
		delivered++
		if data[len(data)-1]%2 == 0 {
			w.Receivers[responder].Respond(mid, append([]byte("re: "), data...), nil)
			return
		}
		data = bytes.Clone(data)
		w.Eng.Schedule(replyDelay, func() {
			w.Receivers[responder].Respond(mid, append([]byte("Re: "), data...), nil)
		})
	})
	s.OnResponse = func(mid uint64, data []byte, _ sim.Time) {
		if !bytes.Equal(data, want[mid]) {
			t.Errorf("response to %x arrived as %q, want %q", mid, data, want[mid])
		}
		responses++
		if data[0] == 'R' {
			delayed++
		}
	}

	// The hidden service echoes every request through the rendezvous. It
	// registers a fresh tag for each conversation: a registration's
	// reverse paths are those standing when it arrived, and repair
	// replaces paths faster than the rendezvous forgets them.
	asked := make(map[uint64][]byte) // by conversation
	var served, answered int
	service.OnInbound = func(conv uint64, data []byte, _ sim.Time) {
		served++
		if err := service.SendServiceReply(conv, append([]byte("echo: "), data...)); err != nil {
			t.Errorf("SendServiceReply: %v", err)
		}
	}
	client.OnInbound = func(conv uint64, data []byte, _ sim.Time) {
		if want := append([]byte("echo: "), asked[conv]...); !bytes.Equal(data, want) {
			t.Errorf("conversation %x answered with %q, want %q", conv, data, want)
		}
		answered++
	}

	// Now and then a message of the test's own goes down one path with
	// its first segment twice: the responder sees a duplicate, and its
	// response is no message the session sent.
	code, err := erasure.New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sendTwice := func(mid uint64, msg []byte) {
		segs, err := code.Split(msg)
		if err != nil {
			t.Fatal(err)
		}
		for slot, p := range s.paths {
			if !s.m.SlotAlive(slot) {
				continue
			}
			sent[mid] = msg
			for _, i := range []int{0, 0, 1} {
				seg := session.Segment{MID: mid, Index: int32(i), Total: 4, Needed: 2, Data: segs[i].Data}
				w.Nodes[initiator].Initiator.SendData(p, seg.Encode(session.KindSegment), nil)
			}
			return
		}
	}

	const messages = 120
	for i := 0; i < messages; i++ {
		if i%5 == 0 {
			sendTwice(1<<63|uint64(i), []byte(fmt.Sprintf("twice %d", i)))
		}
		msg := []byte(fmt.Sprintf("message %03d, %s", i, bytes.Repeat([]byte{'a' + byte(i%26)}, 200+i)))
		msg = append(msg, byte(i))
		if mid, err := s.SendMessage(msg); err == nil {
			sent[mid] = msg
			re := "Re: "
			if i%2 == 0 {
				re = "re: "
			}
			want[mid] = append([]byte(re), msg...)
		}
		if i%4 == 0 {
			tag := uint64(i)
			if service.RegisterService(tag) == nil {
				w.Run(w.Eng.Now() + sim.Second)
			}
			question := []byte(fmt.Sprintf("question %d", i))
			if conv, err := client.SendServiceMessage(tag, question); err == nil {
				asked[conv] = question
			}
		}
		w.Run(w.Eng.Now() + 10*sim.Second)
	}
	w.Run(w.Eng.Now() + replyDelay + sim.Minute)

	st := w.Net.Stats()
	t.Logf("%d sent, %d delivered, %d responses (%d delayed), %d of %d conversations served and %d answered; %d lost, %d to down nodes; rendezvous %+v",
		len(sent), delivered, responses, delayed, served, len(asked), answered, st.DroppedLoss, st.DroppedReceiver, rendezvous.Stats())
	if delivered < len(sent)/2 || delayed < 10 || responses-delayed < 10 || answered < 3 {
		t.Error("too little arrived for the check to mean anything")
	}
	if st.DroppedLoss == 0 || st.DroppedReceiver == 0 {
		t.Error("loss or churn dropped no message")
	}
	tally := buffersTally{delivered: delivered, responses: responses, delayed: delayed, served: served, answered: answered, net: st}
	for _, sess := range []*Session{s, service, client} {
		tally.replaced += sess.Stats().PathsReplaced
		tally.died += sess.Stats().PathsDied
	}
	for _, n := range w.Nodes {
		rs := n.Relay.Stats()
		tally.constructed += rs.Constructed
		tally.badLayers += rs.DroppedBad
	}
	t.Logf("%d paths replaced, %d died; relays installed %d states, could not open %d layers", tally.replaced, tally.died, tally.constructed, tally.badLayers)
	if tally.replaced < 10 {
		t.Errorf("%d paths replaced: too few for the construction onions' lifetimes to mean anything", tally.replaced)
	}
	return tally
}
