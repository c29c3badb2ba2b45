package onion

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/wire"
)

// buildConstructOnionOracle is BuildConstructOnion as it was before the
// onion was built in one buffer: every layer encoded by a fresh
// wire.Writer around a copy of the inner onion and sealed by Suite.Seal
// into a fresh buffer. It defines the bytes the builder must produce.
func buildConstructOnionOracle(suite onioncrypt.Suite, r io.Reader, dir KeyLookup, relays []netsim.NodeID, responder netsim.NodeID, keys [][]byte) ([]byte, error) {
	inner := []byte(nil) // ⊥
	for i := len(relays) - 1; i >= 0; i-- {
		w := wire.NewWriter()
		next := responder
		if i < len(relays)-1 {
			next = relays[i+1]
		}
		w.Int32(int32(next))
		w.Bool(i == len(relays)-1)
		w.Bytes32(keys[i])
		w.Bytes32(inner)
		sealed, err := suite.Seal(r, dir.Public(relays[i]), w.Bytes())
		if err != nil {
			return nil, fmt.Errorf("onion: sealing layer %d: %w", i, err)
		}
		inner = sealed
	}
	return inner, nil
}

// TestConstructOnionMatchesOracle holds the one-buffer construction
// onion to the layer-by-layer construction it replaced, for paths of 1
// to 8 relays: with the same random reader the bytes are the same —
// under Null, which draws nothing, and under ECIES, whose ephemeral keys
// are drawn innermost layer first either way — whether the onion is
// built on its own or behind bytes already in a used buffer, and the
// reader ends where the oracle's does. Each relay then peels its layer:
// the next hop, the terminal marker, its key, and the inner onion the
// next relay gets.
func TestConstructOnionMatchesOracle(t *testing.T) {
	for _, suite := range []onioncrypt.Suite{onioncrypt.Null{}, onioncrypt.ECIES{}} {
		for l := 1; l <= 8; l++ {
			t.Run(fmt.Sprintf("%s/L=%d", suite.Name(), l), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(l)))
				dir, err := NewDirectory(suite, rng, l+2)
				if err != nil {
					t.Fatal(err)
				}
				relays := make([]netsim.NodeID, l)
				keys := make([][]byte, l)
				for i := range relays {
					relays[i] = netsim.NodeID(i + 1)
					if keys[i], err = suite.NewSymKey(rng); err != nil {
						t.Fatal(err)
					}
				}
				responder := netsim.NodeID(l + 1)

				oracleR, builtR := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
				want, err := buildConstructOnionOracle(suite, oracleR, dir, relays, responder, keys)
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildConstructOnion(suite, builtR, dir, relays, responder, keys)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("onion differs from the oracle's:\n got %x\nwant %x", got, want)
				}
				if len(got) != constructOnionSize(suite, l) {
					t.Errorf("onion is %d bytes, constructOnionSize says %d", len(got), constructOnionSize(suite, l))
				}
				if a, b := oracleR.Uint64(), builtR.Uint64(); a != b {
					t.Error("the builder drew from the reader otherwise than the oracle")
				}
				// A pooled buffer is not cleared: every byte of the onion
				// must be written.
				prefix := []byte("frame header")
				dirty := bytes.Repeat([]byte{0xdb}, len(prefix)+len(want))
				behind, err := appendConstructOnion(append(dirty[:0], prefix...), suite, rand.New(rand.NewSource(9)), dir, relays, responder, keys)
				if err != nil {
					t.Fatal(err)
				}
				if &behind[0] != &dirty[0] || !bytes.Equal(behind[:len(prefix)], prefix) || !bytes.Equal(behind[len(prefix):], want) {
					t.Error("an onion built behind other bytes in a used buffer differs from the oracle's, or overwrote them")
				}

				onion := got
				for i, id := range relays {
					layer, err := ParseConstructLayer(suite, dir.Private(id), onion)
					if err != nil {
						t.Fatalf("relay %d: %v", id, err)
					}
					next, terminal := responder, i == l-1
					if !terminal {
						next = relays[i+1]
					}
					if layer.Next != next || layer.Terminal != terminal || !bytes.Equal(layer.Key, keys[i]) {
						t.Fatalf("relay %d peeled next %d terminal %v key %x, want %d %v %x", id, layer.Next, layer.Terminal, layer.Key, next, terminal, keys[i])
					}
					onion = layer.Inner
				}
				if len(onion) != 0 {
					t.Errorf("the terminal relay's inner onion is %d bytes, want ⊥", len(onion))
				}
			})
		}
	}
}

// TestLaunchAllocs: under Null, keying a path of the paper's shape and
// building its construction onion and first payload into a buffer with
// room allocates nothing — the handles are the key bytes the PathKeys
// keeps, and the sealed responder key lies there too.
func TestLaunchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir, err := NewDirectory(onioncrypt.Null{}, rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Suite: onioncrypt.Null{}, Rand: rng, NewSID: func() StreamID { return StreamID(rng.Uint64()) }}
	relays := []netsim.NodeID{1, 2, 3}
	data := []byte("first segment")
	buf := make([]byte, 0, LaunchSize(env.Suite, len(relays), len(data), true))
	var k PathKeys
	var launch Send
	allocs := testing.AllocsPerRun(50, func() {
		if launch, err = k.Launch(env, dir, 0, relays, 4, buf, data, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a launch allocated %v times, want 0", allocs)
	}
	if &launch.Onion[0] != &buf[:1][0] || OffsetIn(buf[:cap(buf)], launch.Body) != len(launch.Onion) {
		t.Error("the launch was not built in the buffer it was given, onion then payload")
	}
}
