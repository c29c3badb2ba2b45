package onion

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/wire"
)

// buildPayloadOnionOracle is BuildPayloadOnion as it was before the
// in-place builder: one buffer per step, every layer sealed into a
// fresh one. It defines the bytes the builder must produce.
func buildPayloadOnionOracle(suite onioncrypt.Suite, r io.Reader, keys [][]byte, responder netsim.NodeID, respKey, sealedRespKey, plain []byte) ([]byte, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("onion: a payload onion needs at least one relay key")
	}
	ct, err := suite.SymSeal(r, respKey, plain)
	if err != nil {
		return nil, fmt.Errorf("onion: sealing responder payload: %w", err)
	}
	w := wire.NewWriter()
	w.Bytes32(sealedRespKey)
	w.Bytes32(ct)
	blob := w.Bytes()

	lw := wire.NewWriter()
	lw.Int32(int32(responder))
	lw.Bytes32(blob)
	body, err := suite.SymSeal(r, keys[len(keys)-1], lw.Bytes())
	if err != nil {
		return nil, fmt.Errorf("onion: sealing terminal layer: %w", err)
	}
	for i := len(keys) - 2; i >= 0; i-- {
		body, err = suite.SymSeal(r, keys[i], body)
		if err != nil {
			return nil, fmt.Errorf("onion: sealing layer %d: %w", i, err)
		}
	}
	return body, nil
}

// payloadKeys draws what a payload onion over l relays is built from.
func payloadKeys(t testing.TB, suite onioncrypt.Suite, rng *rand.Rand, l int) (keys [][]byte, respKey, sealed []byte) {
	t.Helper()
	resp, err := suite.GenerateKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l; i++ {
		k, err := suite.NewSymKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if respKey, err = suite.NewSymKey(rng); err != nil {
		t.Fatal(err)
	}
	if sealed, err = suite.Seal(rng, resp.Public, respKey); err != nil {
		t.Fatal(err)
	}
	return keys, respKey, sealed
}

// peelPayloadOnion opens an onion the way its hops do — every layer in
// place, each hop on what the one before left — down to the plaintext.
func peelPayloadOnion(suite onioncrypt.Suite, keys [][]byte, respKey []byte, body []byte) (dest netsim.NodeID, sealed, plain []byte, err error) {
	openInPlace := func(key, layer []byte) ([]byte, error) {
		c, err := suite.NewCipher(key)
		if err != nil {
			return nil, err
		}
		return c.OpenInPlace(layer)
	}
	for i, k := range keys {
		if body, err = openInPlace(k, body); err != nil {
			return 0, nil, nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	dest, blob, err := ParseTerminalPayload(body)
	if err != nil {
		return 0, nil, nil, err
	}
	sealed, ct, err := ParseResponderBlob(blob)
	if err != nil {
		return 0, nil, nil, err
	}
	plain, err = openInPlace(respKey, ct)
	return dest, sealed, plain, err
}

// TestPayloadOnionMatchesOracle requires the in-place builder to emit,
// under the same random reader, the bytes the copy-per-layer oracle
// emits — fresh, appended behind headroom, and into a dirty recycled
// buffer — to leave the reader where the oracle leaves it, and its
// onions to peel in place down to the plaintext.
func TestPayloadOnionMatchesOracle(t *testing.T) {
	const responder = netsim.NodeID(9)
	for _, suite := range []onioncrypt.Suite{onioncrypt.ECIES{}, onioncrypt.Null{}} {
		for l := 1; l <= 5; l++ {
			for _, size := range []int{0, 1, 1 << 10, 128 << 10} {
				t.Run(fmt.Sprintf("%s/L%d/%d", suite.Name(), l, size), func(t *testing.T) {
					seed := int64(l*1000003 + size)
					keys, respKey, sealed := payloadKeys(t, suite, rand.New(rand.NewSource(seed)), l)
					plain := make([]byte, size)
					rand.New(rand.NewSource(seed + 1)).Read(plain)

					oracleRand := rand.New(rand.NewSource(seed + 2))
					want, err := buildPayloadOnionOracle(suite, oracleRand, keys, responder, respKey, sealed, plain)
					if err != nil {
						t.Fatal(err)
					}
					if len(want) != PayloadOnionSize(suite, l, size) {
						t.Fatalf("oracle onion is %d bytes, PayloadOnionSize says %d", len(want), PayloadOnionSize(suite, l, size))
					}
					fill := func(b []byte) []byte { return append(b, plain...) }

					r := rand.New(rand.NewSource(seed + 2))
					got, err := BuildPayloadOnion(suite, r, keys, responder, respKey, sealed, plain)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatal("BuildPayloadOnion differs from the oracle")
					}
					if r.Int63() != oracleRand.Int63() {
						t.Fatal("the builder drew a different amount of randomness than the oracle")
					}

					// Appended behind a header in a recycled buffer full of
					// someone else's bytes: same onion, header untouched,
					// no reallocation.
					const headroom = 13
					dirty := bytes.Repeat([]byte{0xa5}, headroom+len(want))
					header := []byte("frame header!")
					buf := append(dirty[:0], header...)
					out, err := appendPayloadOnion(buf, suite, rand.New(rand.NewSource(seed+2)), keys, responder, respKey, sealed, size, fill)
					if err != nil {
						t.Fatal(err)
					}
					if &out[0] != &dirty[0] {
						t.Fatal("builder reallocated a buffer that had room")
					}
					if !bytes.Equal(out[:headroom], header) || !bytes.Equal(out[headroom:], want) {
						t.Fatal("appended onion differs from the oracle")
					}

					dest, gotSealed, gotPlain, err := peelPayloadOnion(suite, keys, respKey, out[headroom:])
					if err != nil {
						t.Fatal(err)
					}
					if dest != responder || !bytes.Equal(gotSealed, sealed) || !bytes.Equal(gotPlain, plain) {
						t.Fatal("peeled onion does not carry what was built into it")
					}
					if size > 0 && &gotPlain[0] != &out[headroom+plainOffset(suite, l, len(sealed))] {
						t.Fatal("in-place opens moved the plaintext")
					}
				})
			}
		}
	}
}

// plainOffset is where the application plaintext sits inside a payload
// onion over l relays.
func plainOffset(suite onioncrypt.Suite, l, sealedLen int) int {
	return l*suite.SymPrefix() + 4 + 4 + 4 + sealedLen + 4 + suite.SymPrefix()
}

// TestPayloadOnionBuilderRejects covers the builder's own error paths.
func TestPayloadOnionBuilderRejects(t *testing.T) {
	suite := onioncrypt.ECIES{}
	rng := rand.New(rand.NewSource(3))
	keys, respKey, sealed := payloadKeys(t, suite, rng, 2)
	if _, err := BuildPayloadOnion(suite, rng, nil, 1, respKey, sealed, []byte("x")); err == nil {
		t.Error("onion without relay keys built")
	}
	if _, err := BuildPayloadOnion(suite, rng, [][]byte{keys[0], keys[1][:5]}, 1, respKey, sealed, []byte("x")); err == nil {
		t.Error("short relay key accepted")
	}
	if _, err := BuildPayloadOnion(suite, rng, keys, 1, respKey[:5], sealed, []byte("x")); err == nil {
		t.Error("short responder key accepted")
	}
	for _, n := range []int{2, 4} {
		_, err := appendPayloadOnion(nil, suite, rng, keys, 1, respKey, sealed, 3,
			func(b []byte) []byte { return append(b, make([]byte, n)...) })
		if err == nil {
			t.Errorf("payload of %d bytes announced as 3 accepted", n)
		}
	}
}

// sampleBits picks the bits of an n-byte layer a tamper test flips: all
// of the first and last 40 bytes' low bits (both suites' headers, the
// AEAD tag) and a stride through the middle, each with a different bit
// of its byte.
func sampleBits(n int) [][2]int {
	var bits [][2]int
	for i := 0; i < n; i++ {
		if i < 40 || i >= n-40 || i%97 == 0 {
			bits = append(bits, [2]int{i, i % 8})
		}
	}
	return bits
}

// TestPayloadOnionTamper flips single bits of the payload layer each hop
// of a 3-relay path receives and requires the hop that owns the layer —
// the first to see the damage — to drop it as DropBad, and the
// responder to refuse a damaged blob: building and opening in place
// authenticate exactly what the copying code did. Under ECIES every bit
// is covered; Null authenticates nothing past its 28-byte header, so
// only that is flipped.
func TestPayloadOnionTamper(t *testing.T) {
	relays := []netsim.NodeID{2, 3, 4}
	const resp netsim.NodeID = 7
	for _, suite := range []onioncrypt.Suite{onioncrypt.ECIES{}, onioncrypt.Null{}} {
		t.Run(suite.Name(), func(t *testing.T) {
			h := newHopNet(t, suite, relays, []netsim.NodeID{resp})
			var keys PathKeys
			launch, err := keys.Launch(h.env, h.dir, hopInitiator, relays, resp, nil, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			h.pump(hopInitiator, launch)
			plain := make([]byte, 1<<10)
			rand.New(rand.NewSource(5)).Read(plain)
			msg, err := keys.Data(h.dir, resp, plain)
			if err != nil {
				t.Fatal(err)
			}
			covered := func(n int) int {
				if suite.Name() == "null" {
					return suite.SymOverhead()
				}
				return n
			}
			from := hopInitiator
			for _, at := range relays {
				bad := h.tabs[at].Stats().DroppedBad
				for _, bit := range sampleBits(covered(len(msg.Body))) {
					damaged := msg
					damaged.Body = bytes.Clone(msg.Body)
					damaged.Body[bit[0]] ^= 1 << bit[1]
					if st := h.input(at, from, damaged); st.N != 0 || st.Drop != DropBad {
						t.Fatalf("relay %d, byte %d bit %d flipped: %+v, want DropBad", at, bit[0], bit[1], st)
					}
					bad++
				}
				if got := h.tabs[at].Stats().DroppedBad; got != bad {
					t.Fatalf("relay %d counted %d bad layers, want %d", at, got, bad)
				}
				st := h.input(at, from, msg)
				if st.N != 1 || st.Drop != DropNone {
					t.Fatalf("relay %d refused the undamaged layer: %+v", at, st)
				}
				from, msg = at, st.Out[0]
			}
			if msg.Kind != KindDeliver || msg.To != resp {
				t.Fatalf("terminal relay sent %+v", msg)
			}
			// The blob is sealed key and ciphertext behind two length
			// fields: a flip anywhere must fail the parse, the key check
			// or the payload's own authentication.
			for _, bit := range sampleBits(covered(len(msg.Body))) {
				damaged := bytes.Clone(msg.Body)
				damaged[bit[0]] ^= 1 << bit[1]
				if _, _, ok := h.resp[resp].Open(h.now, msg.SID, damaged); ok {
					t.Fatalf("responder opened a blob with byte %d bit %d flipped", bit[0], bit[1])
				}
			}
			_, got, ok := h.resp[resp].Open(h.now, msg.SID, msg.Body)
			if !ok || !bytes.Equal(got, plain) {
				t.Fatal("responder could not open the undamaged blob")
			}
		})
	}
}

// FuzzPayloadOnionInPlace builds payload onions of fuzzed shape in
// place, compares them with the oracle, peels them in place, and then
// flips one fuzzed bit: under ECIES the damaged onion must not peel.
func FuzzPayloadOnionInPlace(f *testing.F) {
	f.Add(uint8(2), int64(1), []byte("hello"), uint32(0), false)
	f.Add(uint8(1), int64(2), []byte{}, uint32(77), true)
	f.Add(uint8(5), int64(3), make([]byte, 300), uint32(1<<20), false)
	f.Fuzz(func(t *testing.T, l uint8, seed int64, plain []byte, flip uint32, null bool) {
		var suite onioncrypt.Suite = onioncrypt.ECIES{}
		if null {
			suite = onioncrypt.Null{}
		}
		hops := int(l%8) + 1
		keys, respKey, sealed := payloadKeys(t, suite, rand.New(rand.NewSource(seed)), hops)
		want, err := buildPayloadOnionOracle(suite, rand.New(rand.NewSource(seed+1)), keys, 3, respKey, sealed, plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildPayloadOnion(suite, rand.New(rand.NewSource(seed+1)), keys, 3, respKey, sealed, plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("in-place onion differs from the oracle")
		}
		if len(got) != PayloadOnionSize(suite, hops, len(plain)) {
			t.Fatalf("onion is %d bytes, PayloadOnionSize says %d", len(got), PayloadOnionSize(suite, hops, len(plain)))
		}
		_, _, out, err := peelPayloadOnion(suite, keys, respKey, got)
		if err != nil || !bytes.Equal(out, plain) {
			t.Fatalf("onion does not peel to its plaintext (err %v)", err)
		}
		bit := int(flip) % (8 * len(want))
		want[bit/8] ^= 1 << (bit % 8)
		if _, _, _, err := peelPayloadOnion(suite, keys, respKey, want); err == nil && !null {
			t.Fatalf("onion with bit %d flipped still peels", bit)
		}
	})
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs calls after a warm-up one.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestHotPathAllocs is the per-byte path's allocation budget where no
// host can move it (erasure.TestHotPathAllocs is its neighbour). Every
// key on the path was set up when the state holding it was made — a
// relay's at construction, the initiator's at launch, a responder's on
// its stream's first delivery — so under the real suite as under Null a
// frame allocates nothing at all: not building the 2-relay onion of a
// 128 KB segment (three layers) in a buffer that has room, not
// forwarding a layer at a relay, not a delivery on a stream the
// responder has a record of, not a relay's reverse hop on a body with
// room. What is left is the one buffer a responder's reply is made in
// (reverseLayer's), which nothing here can reuse: it leaves with the
// reply. Before the keys were handles each of these rows also paid
// 1 280 bytes of AES-GCM key schedule per layer it touched.
func TestHotPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	relays := []netsim.NodeID{2, 3}
	h := newHopNet(t, onioncrypt.ECIES{}, relays, []netsim.NodeID{7})
	h.env.Rand = rng
	var keys PathKeys
	launch, err := keys.Launch(h.env, h.dir, hopInitiator, relays, 7, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	h.pump(hopInitiator, launch)
	none := func(what string, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(20, f); got != 0 {
			t.Errorf("%s allocates %v times, want 0", what, got)
		}
	}

	seg := make([]byte, 128<<10)
	fill := func(b []byte) []byte { return append(b, seg...) }
	const headroom = 13
	buf := make([]byte, headroom, headroom+keys.DataSize(len(seg)))
	var msg Send
	none("ecies: building a 128 KB onion into a buffer with room", func() {
		if msg, err = keys.AppendData(buf, h.dir, 7, len(seg), fill); err != nil {
			t.Fatal(err)
		}
	})
	if &msg.Body[0] != &buf[:cap(buf)][headroom] {
		t.Error("the onion was not built in the buffer it was given")
	}

	layer := make([]byte, len(msg.Body))
	var hop Step
	none("ecies: forwarding a 128 KB layer", func() {
		copy(layer, msg.Body) // Data consumes its input
		if hop = h.tabs[2].Data(h.now, msg.SID, layer); hop.N != 1 || hop.Out[0].Kind != KindData {
			t.Fatalf("relay did not forward: %+v", hop)
		}
	})
	last := h.tabs[3].Data(h.now, hop.Out[0].SID, hop.Out[0].Body)
	if last.N != 1 || last.Out[0].Kind != KindDeliver {
		t.Fatalf("terminal relay did not deliver: %+v", last)
	}
	arrived := bytes.Clone(last.Out[0].Body)
	blob := make([]byte, len(arrived))
	none("ecies: a 128 KB delivery on a recorded stream", func() {
		copy(blob, arrived) // Open consumes its input
		if _, _, ok := h.resp[7].Open(h.now, last.Out[0].SID, blob); !ok {
			t.Fatal("the responder could not open the delivery")
		}
	})

	for _, suite := range []onioncrypt.Suite{onioncrypt.ECIES{}, onioncrypt.Null{}} {
		p := newReversePath(t, suite, 1)
		var reply Send
		respond := func() {
			if reply, err = p.streams.Reply(p.relay, p.sid, p.key, seg); err != nil {
				t.Fatal(err)
			}
		}
		// One buffer: the reply with reverseSlack layers of room, which
		// the allocator rounds up to whole 8 KB pages.
		buffer := float64((len(seg) + (1+reverseSlack)*suite.SymOverhead() + 8191) &^ 8191)
		if got := allocBytesPerRun(20, respond); got < buffer || got >= buffer+1<<10 {
			t.Errorf("%s: a 128 KB reply allocates %.0f bytes, want its %.0f-byte buffer and nothing beside it", suite.Name(), got, buffer)
		}
		if got := testing.AllocsPerRun(20, respond); got != 1 {
			t.Errorf("%s: a reply allocates %v times, want 1", suite.Name(), got)
		}
		arrived := bytes.Clone(reply.Body)
		none(suite.Name()+": a relay's reverse hop on a 128 KB body with room", func() {
			copy(reply.Body, arrived) // Reverse consumes its input
			if st := p.tabs[0].Reverse(1, reply.SID, reply.Body, reply.Room); st.N != 1 || OffsetIn(reply.Room, st.Out[0].Body) < 0 {
				t.Fatalf("relay did not seal the reply where it lay: %+v", st)
			}
		})
	}
}
