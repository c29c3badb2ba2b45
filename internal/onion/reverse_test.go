package onion

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

// reversePath is a path of l relays with its first payload delivered:
// every role a reply meets on its way back. The roles draw from rand,
// which a test swaps to fix the nonces of one reply.
type reversePath struct {
	suite   onioncrypt.Suite
	rand    *swapReader
	keys    PathKeys
	tabs    []*Table // in forwarding order
	streams *Streams
	relay   netsim.NodeID     // the terminal relay
	sid     StreamID          // the stream it delivered on
	key     onioncrypt.Cipher // that stream's key, as Streams.Open returned it
	// The path's keys by their bytes, which no role keeps: what the
	// SymSeal oracle seals under.
	hopKeys [][]byte
	respKey []byte
}

type swapReader struct{ io.Reader }

// keyLog is a random reader that remembers what each read drew: for one
// PathKeys.Launch, the first are the hop keys R_1..R_L and then the
// responder key (the stream id is drawn from the rng directly).
type keyLog struct {
	io.Reader
	draws *[][]byte
}

func (k keyLog) Read(b []byte) (int, error) {
	n, err := k.Reader.Read(b)
	*k.draws = append(*k.draws, bytes.Clone(b[:n]))
	return n, err
}

func newReversePath(t testing.TB, suite onioncrypt.Suite, l int) *reversePath {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(l)))
	p := &reversePath{suite: suite, rand: &swapReader{rng}}
	dir, err := NewDirectory(suite, rng, l+2)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Suite: suite, Rand: p.rand, NewSID: func() StreamID { return StreamID(rng.Uint64()) }}
	relays := make([]netsim.NodeID, l)
	for i := range relays {
		relays[i] = netsim.NodeID(i + 1)
	}
	responder := netsim.NodeID(l + 1)
	var msg Send
	var drawn [][]byte
	initiator := env
	initiator.Rand = keyLog{p.rand, &drawn}
	if msg, err = p.keys.Launch(initiator, dir, 0, relays, responder, nil, []byte("first"), true); err != nil {
		t.Fatal(err)
	}
	p.hopKeys, p.respKey = drawn[:l], drawn[l]
	from := netsim.NodeID(0)
	for _, id := range relays {
		tab := NewTable(env, dir.Private(id), 1000)
		st := tab.ConstructData(0, from, msg.SID, msg.Onion, msg.Body)
		if st.N == 0 {
			t.Fatalf("relay %d refused the construction: %+v", id, st)
		}
		p.tabs = append(p.tabs, tab)
		from, msg = id, st.Out[0]
	}
	p.streams = NewStreams(env, dir.Private(responder), 1000)
	var ok bool
	if p.key, _, ok = p.streams.Open(0, msg.SID, msg.Body); !ok {
		t.Fatal("the responder could not open the first payload")
	}
	p.relay, p.sid = from, msg.SID
	return p
}

// walk takes a reply from the responder back to the initiator, handing
// each hop the body and room the hop before it returned, and calls
// visit with what crossed each link: hop 0 is the reply itself, hop i
// what the i-th relay on the way back made of it.
func (p *reversePath) walk(t testing.TB, reply Send, visit func(hop int, s Send)) Send {
	t.Helper()
	visit(0, reply)
	for i := len(p.tabs) - 1; i >= 0; i-- {
		st := p.tabs[i].Reverse(1, reply.SID, reply.Body, reply.Room)
		if st.N != 1 || st.Out[0].Kind != KindReverse {
			t.Fatalf("relay %d did not forward the reply: %+v", i+1, st)
		}
		reply = st.Out[0]
		visit(len(p.tabs)-i, reply)
	}
	return reply
}

// TestReverseInPlaceMatchesSeal holds the in-place reverse path to the
// layer-by-layer construction it replaced, kept here as the oracle: with
// the same random reader, what Streams.Reply makes and what every
// Table.Reverse makes of it is byte for byte the Suite.SymSeal chain —
// responder key, then R_L … R_1 — the reader ends where the oracle's
// does, and PathKeys.OpenReverse gets the plaintext back. Paths run
// past reverseSlack relays, so a body is also moved on the way, exactly
// when its room runs out; and a bit flipped on any link still ends in a
// reply the initiator refuses.
func TestReverseInPlaceMatchesSeal(t *testing.T) {
	for _, suite := range []onioncrypt.Suite{onioncrypt.Null{}, onioncrypt.ECIES{}} {
		for l := 1; l <= 8; l++ {
			for _, size := range []int{0, 13, 1 << 10} {
				t.Run(fmt.Sprintf("%s/L%d/%d", suite.Name(), l, size), func(t *testing.T) {
					p := newReversePath(t, suite, l)
					plain := make([]byte, size)
					rand.New(rand.NewSource(int64(size))).Read(plain)

					oracleRand := rand.New(rand.NewSource(99))
					want := make([][]byte, 0, l+1)
					body, err := suite.SymSeal(oracleRand, p.respKey, plain)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, body)
					for i := l - 1; i >= 0; i-- {
						if body, err = suite.SymSeal(oracleRand, p.hopKeys[i], body); err != nil {
							t.Fatal(err)
						}
						want = append(want, body)
					}

					r := rand.New(rand.NewSource(99))
					p.rand.Reader = r
					reply, err := p.streams.Reply(p.relay, p.sid, p.key, plain)
					if err != nil {
						t.Fatal(err)
					}
					moves, room := 0, reply.Room
					last := p.walk(t, reply, func(hop int, s Send) {
						if !bytes.Equal(s.Body, want[hop]) {
							t.Fatalf("hop %d: the body sealed in place differs from the SymSeal chain", hop)
						}
						if OffsetIn(s.Room, s.Body) < 0 {
							t.Fatalf("hop %d: the body does not lie in the room the step names", hop)
						}
						if &s.Room[0] != &room[0] {
							moves, room = moves+1, s.Room
						}
					})
					if r.Int63() != oracleRand.Int63() {
						t.Fatal("the in-place path drew a different amount of randomness than the oracle")
					}
					if moves != l/reverseSlack {
						t.Fatalf("the body moved %d times over %d relays, want %d", moves, l, l/reverseSlack)
					}
					if last.SID != p.keys.sid {
						t.Fatalf("the reply arrived on stream %d, the path's is %d", last.SID, p.keys.sid)
					}
					from, got, ok := p.keys.OpenReverse(last.Body)
					if !ok || from != netsim.NodeID(l+1) || !bytes.Equal(got, plain) {
						t.Fatalf("OpenReverse = %d, %d bytes, %v", from, len(got), ok)
					}

					// The first byte of a layer is authenticated by both
					// suites (Null checks nothing past its header).
					for flipAt := 0; flipAt <= l; flipAt++ {
						reply, err := p.streams.Reply(p.relay, p.sid, p.key, plain)
						if err != nil {
							t.Fatal(err)
						}
						last := p.walk(t, reply, func(hop int, s Send) {
							if hop == flipAt {
								s.Body[0] ^= 0x10
							}
						})
						if _, _, ok := p.keys.OpenReverse(last.Body); ok {
							t.Fatalf("a reply damaged on link %d still opened", flipAt)
						}
					}
				})
			}
		}
	}
}

// TestAppendReplyInPlace: a reply appended to a buffer with room — a
// live responder's scratch behind its frame header — is sealed there,
// header untouched, the same bytes as anywhere else; and a plaintext
// that is not the length announced is refused.
func TestAppendReplyInPlace(t *testing.T) {
	for _, suite := range []onioncrypt.Suite{onioncrypt.Null{}, onioncrypt.ECIES{}} {
		p := newReversePath(t, suite, 2)
		plain := []byte("thirteen byte")
		fill := func(b []byte) []byte { return append(b, plain...) }
		want, err := suite.SymSeal(rand.New(rand.NewSource(5)), p.respKey, plain)
		if err != nil {
			t.Fatal(err)
		}
		header := []byte("frame header!")
		buf := bytes.Repeat([]byte{0xa5}, len(header)+len(want))
		copy(buf, header)
		p.rand.Reader = rand.New(rand.NewSource(5))
		s, err := p.streams.AppendReply(buf[:len(header)], p.relay, p.sid, p.key, len(plain), fill)
		if err != nil {
			t.Fatal(err)
		}
		if OffsetIn(buf, s.Body) != len(header) || !bytes.Equal(buf[:len(header)], header) || !bytes.Equal(s.Body, want) {
			t.Fatalf("%s: the reply was not sealed behind the header of the buffer it was given", suite.Name())
		}
		// One byte short of room: built elsewhere, same bytes, dst as it was.
		p.rand.Reader = rand.New(rand.NewSource(5))
		short := buf[: len(header) : len(buf)-1]
		if s, err = p.streams.AppendReply(short, p.relay, p.sid, p.key, len(plain), fill); err != nil {
			t.Fatal(err)
		}
		if OffsetIn(buf, s.Body) >= 0 || !bytes.Equal(s.Body, want) || !bytes.Equal(short, header) {
			t.Fatalf("%s: a reply without room was not moved intact", suite.Name())
		}
		for _, n := range []int{len(plain) - 1, len(plain) + 1} {
			if _, err := p.streams.AppendReply(nil, p.relay, p.sid, p.key, n, fill); err == nil {
				t.Errorf("%s: a %d-byte reply announced as %d was accepted", suite.Name(), len(plain), n)
			}
		}
	}
}
