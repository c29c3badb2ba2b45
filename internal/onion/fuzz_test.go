package onion

import (
	"bytes"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
)

// FuzzParseConstructLayer feeds arbitrary ciphertext to the relay-side
// onion parser: garbage must fail cleanly, never panic or produce a
// layer that violates its invariants.
func FuzzParseConstructLayer(f *testing.F) {
	suite := onioncrypt.Null{}
	eng := sim.NewEngine(1)
	dir, err := NewDirectory(suite, eng.RNG(), 4)
	if err != nil {
		f.Fatal(err)
	}
	keys := [][]byte{make([]byte, onioncrypt.SymKeySize)}
	good, err := BuildConstructOnion(suite, eng.RNG(), dir, []netsim.NodeID{0}, 3, keys)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 64))

	priv := dir.Private(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		layer, err := ParseConstructLayer(suite, priv, data)
		if err != nil {
			return
		}
		// Accepted layers must be internally consistent.
		if layer.Terminal != (len(layer.Inner) == 0) {
			t.Fatal("accepted layer violates the terminal/⊥ invariant")
		}
	})
}

// FuzzResponderBlob exercises the delivery-side parsers the responder
// runs on network input.
func FuzzResponderBlob(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if sealed, ct, err := ParseResponderBlob(data); err == nil {
			if len(sealed)+len(ct) > len(data) {
				t.Fatal("parsed parts exceed input")
			}
		}
		if _, blob, err := ParseTerminalPayload(data); err == nil {
			if len(blob) > len(data) {
				t.Fatal("parsed blob exceeds input")
			}
		}
	})
}

// FuzzRelayTable feeds arbitrary (kind, from, sid, body) inputs to a
// relay table that already holds one real path: hostile input must
// never panic, never yield more than two well-formed sends, and never
// grow the table beyond the constructs it accepted. A reverse body
// arrives at an arbitrary offset of a buffer with arbitrary room around
// it — none included — and, on the seeded path's stream (an even sid
// stands for it: the table draws a new one every run), must leave one
// layer longer, inside the buffer the step names, opening to what came
// in, and without having moved if it had the room.
func FuzzRelayTable(f *testing.F) {
	suite := onioncrypt.Null{}
	eng := sim.NewEngine(1)
	dir, err := NewDirectory(suite, eng.RNG(), 6)
	if err != nil {
		f.Fatal(err)
	}
	env := simEnv(eng.RNG(), suite, nil)
	relays := []netsim.NodeID{1, 2}
	var keys PathKeys
	launch, err := keys.Launch(env, dir, 0, relays, 5, nil, []byte("first"), true)
	if err != nil {
		f.Fatal(err)
	}
	pre, post := suite.SymPrefix(), suite.SymOverhead()-suite.SymPrefix()
	// ConstructData inputs carry onionLen(1) | onion | body in one slice.
	joined := append(append([]byte{byte(len(launch.Onion))}, launch.Onion...), launch.Body...)
	f.Add(uint8(KindConstruct), int32(0), uint64(9), launch.Onion, uint8(0), uint8(0))
	f.Add(uint8(KindConstructData), int32(0), uint64(launch.SID), joined, uint8(0), uint8(0))
	f.Add(uint8(KindData), int32(0), uint64(launch.SID), launch.Body, uint8(0), uint8(0))
	f.Add(uint8(KindAck), int32(3), uint64(0), []byte{}, uint8(0), uint8(0))
	f.Add(uint8(KindReverse), int32(-1), uint64(1<<63|1), make([]byte, 64), uint8(0), uint8(0))
	f.Add(uint8(KindReverse), int32(0), uint64(0), []byte("no room at all"), uint8(0), uint8(0))
	f.Add(uint8(KindReverse), int32(0), uint64(0), []byte("a layer's room exactly"), uint8(pre), uint8(post))
	f.Add(uint8(KindReverse), int32(0), uint64(0), []byte("a byte short in front"), uint8(pre-1), uint8(post))
	f.Add(uint8(KindReverse), int32(0), uint64(0), []byte{}, uint8(200), uint8(200))
	f.Add(uint8(KindReverse), int32(0), uint64(2), make([]byte, 300), uint8(13+pre), uint8(3))
	// A construction whose hop key has the wrong size is refused where it
	// arrives: no state, so nothing the invariants below could count.
	short, err := BuildConstructOnion(suite, eng.RNG(), dir, []netsim.NodeID{1}, 5, [][]byte{make([]byte, 5)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(KindConstruct), int32(0), uint64(11), short, uint8(0), uint8(0))
	f.Add(uint8(KindConstructData), int32(0), uint64(13), append(append([]byte{byte(len(short))}, short...), launch.Body...), uint8(0), uint8(0))

	// wrongKey: a layer that opens to a key no cipher can be made of is
	// a bad frame, whatever else it says.
	wrongKey := func(t *testing.T, onion []byte, st Step) {
		if layer, err := ParseConstructLayer(suite, dir.Private(1), onion); err == nil && len(layer.Key) != onioncrypt.SymKeySize && st.Drop != DropBad {
			t.Fatalf("a construction with a %d-byte key was answered: %+v", len(layer.Key), st)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, from int32, sid uint64, body []byte, front, back uint8) {
		tab := NewTable(env, dir.Private(1), 100)
		seeded := tab.ConstructData(0, 0, launch.SID, launch.Onion, launch.Body)
		if seeded.N != 1 {
			t.Fatalf("seed path rejected: %+v", seeded)
		}
		for now := int64(1); now <= 201; now += 100 { // live, then expired
			var st Step
			switch Kind(kind) {
			case KindConstruct:
				st = tab.Construct(now, netsim.NodeID(from), StreamID(sid), body)
				wrongKey(t, body, st)
			case KindConstructData:
				onion, rest := body, []byte(nil)
				if len(body) > 0 && int(body[0]) < len(body) {
					onion, rest = body[1:1+body[0]], body[1+body[0]:]
				}
				st = tab.ConstructData(now, netsim.NodeID(from), StreamID(sid), onion, rest)
				wrongKey(t, onion, st)
			case KindAck:
				st = tab.Ack(now, StreamID(sid))
			case KindData:
				st = tab.Data(now, StreamID(sid), body)
			case KindReverse:
				if sid%2 == 0 {
					sid = uint64(seeded.Out[0].SID)
				}
				room := make([]byte, int(front)+len(body), int(front)+len(body)+int(back))
				in := room[front:]
				copy(in, body)
				st = tab.Reverse(now, StreamID(sid), in, room)
				if st.N == 0 {
					break
				}
				out := st.Out[0]
				if len(out.Body) != len(body)+pre+post || OffsetIn(out.Room, out.Body) < 0 {
					t.Fatalf("a %d-byte reverse body left as %d bytes at %d of its room", len(body), len(out.Body), OffsetIn(out.Room, out.Body))
				}
				hadRoom := len(body) > 0 && int(front) >= pre && int(back) >= post
				if moved := cap(room) == 0 || &out.Room[0] != &room[:1][0]; moved == hadRoom {
					t.Fatalf("%d bytes with %d in front and %d behind: moved = %v", len(body), front, back, moved)
				}
				if got, err := keys.hops[0].Open(out.Body); err != nil || !bytes.Equal(got, body) {
					t.Fatalf("the reverse layer does not open to what came in (err %v)", err)
				}
			default:
				return
			}
			if st.N < 0 || st.N > 2 || (st.N > 0 && st.Drop != DropNone) {
				t.Fatalf("step %+v", st)
			}
			for i := 0; i < st.N; i++ {
				if k := st.Out[i].Kind; k < KindConstruct || k > KindConstructData {
					t.Fatalf("send of kind %d", k)
				}
			}
			accepted := int(tab.Stats().Constructed)
			if fwd, rev := tab.States(); fwd > accepted || rev > accepted {
				t.Fatalf("%d forward / %d reverse states from %d accepted constructs", fwd, rev, accepted)
			}
		}
	})
}
