package onioncrypt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func suites() []Suite { return []Suite{ECIES{}, Null{}} }

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSealOpenRoundTrip(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			r := rng(1)
			kp, err := s.GenerateKeyPair(r)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("onions have layers")
			ct, err := s.Seal(r, kp.Public, msg)
			if err != nil {
				t.Fatal(err)
			}
			if len(ct) != len(msg)+s.SealOverhead() {
				t.Fatalf("ciphertext %d bytes, want %d + overhead %d", len(ct), len(msg), s.SealOverhead())
			}
			pt, err := s.Open(kp.Private, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pt, msg) {
				t.Fatalf("round trip failed: %q", pt)
			}
		})
	}
}

func TestOpenWrongKeyFails(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			r := rng(2)
			alice, _ := s.GenerateKeyPair(r)
			mallory, _ := s.GenerateKeyPair(r)
			ct, err := s.Seal(r, alice.Public, []byte("secret"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open(mallory.Private, ct); err == nil {
				t.Fatal("wrong key opened the ciphertext")
			}
		})
	}
}

func TestOpenTruncatedFails(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			r := rng(3)
			kp, _ := s.GenerateKeyPair(r)
			ct, _ := s.Seal(r, kp.Public, []byte("x"))
			for _, cut := range []int{0, 1, len(ct) / 2, len(ct) - 1} {
				if _, err := s.Open(kp.Private, ct[:cut]); err == nil {
					t.Fatalf("truncated ciphertext (%d bytes) opened", cut)
				}
			}
		})
	}
}

func TestECIESTamperDetected(t *testing.T) {
	s := ECIES{}
	r := rng(4)
	kp, _ := s.GenerateKeyPair(r)
	ct, _ := s.Seal(r, kp.Public, []byte("authenticated"))
	ct[len(ct)-1] ^= 1
	if _, err := s.Open(kp.Private, ct); err == nil {
		t.Fatal("tampered ciphertext opened")
	}
}

func TestSymRoundTrip(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			r := rng(5)
			key, err := s.NewSymKey(r)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("payload layer")
			ct, err := s.SymSeal(r, key, msg)
			if err != nil {
				t.Fatal(err)
			}
			if len(ct) != len(msg)+s.SymOverhead() {
				t.Fatalf("ciphertext %d bytes, want %d + %d", len(ct), len(msg), s.SymOverhead())
			}
			pt, err := s.SymOpen(key, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pt, msg) {
				t.Fatal("sym round trip failed")
			}
		})
	}
}

// TestSymInPlaceMatchesCopying pins the contract between the two forms
// of each symmetric operation: sealing in place leaves the bytes SymSeal
// returns under the same reader, without touching a byte outside the
// layer; opening in place returns the plaintext where it lay; and
// SymOpen, unlike Cipher.OpenInPlace, leaves its ciphertext to be opened
// again.
func TestSymInPlaceMatchesCopying(t *testing.T) {
	for _, s := range suites() {
		for _, size := range []int{0, 1, 1000} {
			key, _ := s.NewSymKey(rng(8))
			c, err := s.NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			msg := make([]byte, size)
			rng(9).Read(msg)
			want, err := s.SymSeal(rng(10), key, msg)
			if err != nil {
				t.Fatal(err)
			}

			const margin = 5
			pre := s.SymPrefix()
			buf := bytes.Repeat([]byte{0xa5}, margin+len(want)+margin)
			layer := buf[margin : margin+len(want)]
			copy(layer[pre:], msg)
			r := rng(10)
			if err := c.SealInPlace(r, layer); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(layer, want) {
				t.Fatalf("%s/%d: sealed in place differs from SymSeal", s.Name(), size)
			}
			if !bytes.Equal(buf[:margin], bytes.Repeat([]byte{0xa5}, margin)) || !bytes.Equal(buf[margin+len(want):], bytes.Repeat([]byte{0xa5}, margin)) {
				t.Fatalf("%s/%d: sealing in place wrote outside the layer", s.Name(), size)
			}
			if s.Name() == "ecies" && r.Int63() == rng(10).Int63() {
				t.Fatal("sealing in place drew no nonce")
			}

			for i := 0; i < 2; i++ { // SymOpen leaves the layer intact
				pt, err := s.SymOpen(key, layer)
				if err != nil || !bytes.Equal(pt, msg) || !bytes.Equal(layer, want) {
					t.Fatalf("%s/%d: SymOpen #%d: err %v", s.Name(), size, i, err)
				}
			}
			pt, err := c.OpenInPlace(layer)
			if err != nil || !bytes.Equal(pt, msg) {
				t.Fatalf("%s/%d: OpenInPlace: err %v", s.Name(), size, err)
			}
			if size > 0 && &pt[0] != &layer[pre] {
				t.Fatalf("%s/%d: opened in place, but not where the plaintext lay", s.Name(), size)
			}

			// A layer that does not authenticate yields nothing, in
			// either form; too short a buffer is no layer; a short key
			// makes no handle.
			otherKey, _ := s.NewSymKey(rng(11))
			other, err := s.NewCipher(otherKey)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := other.OpenInPlace(bytes.Clone(want)); err == nil {
				t.Fatalf("%s/%d: wrong key opened the layer in place", s.Name(), size)
			}
			for cut := 0; cut < s.SymOverhead(); cut++ {
				if _, err := c.OpenInPlace(bytes.Clone(want[:cut])); err == nil {
					t.Fatalf("%s: %d-byte layer opened in place", s.Name(), cut)
				}
				if err := c.SealInPlace(rng(10), make([]byte, cut)); err == nil {
					t.Fatalf("%s: sealed a layer into %d bytes", s.Name(), cut)
				}
			}
			if _, err := s.NewCipher(key[:7]); !errors.Is(err, ErrBadKeySize) {
				t.Fatalf("%s: NewCipher with a short key: %v", s.Name(), err)
			}
		}
	}
}

func TestSymWrongKeyFails(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			r := rng(6)
			k1, _ := s.NewSymKey(r)
			k2, _ := s.NewSymKey(r)
			ct, _ := s.SymSeal(r, k1, []byte("layered"))
			if _, err := s.SymOpen(k2, ct); err == nil {
				t.Fatal("wrong symmetric key opened the layer")
			}
		})
	}
}

func TestSymBadKeySize(t *testing.T) {
	for _, s := range suites() {
		if _, err := s.SymSeal(rng(7), make([]byte, 7), []byte("x")); err == nil {
			t.Errorf("%s: short key accepted by SymSeal", s.Name())
		}
		if _, err := s.SymOpen(make([]byte, 7), make([]byte, 64)); err == nil {
			t.Errorf("%s: short key accepted by SymOpen", s.Name())
		}
	}
}

func TestOverheadsMatchAcrossSuites(t *testing.T) {
	// Bandwidth results measured with Null must transfer to ECIES, so
	// the structural overheads must be identical.
	e, n := ECIES{}, Null{}
	if e.SealOverhead() != n.SealOverhead() {
		t.Errorf("seal overhead: ecies %d != null %d", e.SealOverhead(), n.SealOverhead())
	}
	if e.SymOverhead() != n.SymOverhead() {
		t.Errorf("sym overhead: ecies %d != null %d", e.SymOverhead(), n.SymOverhead())
	}
}

func TestNestedLayersBothSuites(t *testing.T) {
	// Build a 5-layer symmetric onion and peel it — the payload path of
	// §4.2 in miniature.
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			r := rng(8)
			const layers = 5
			keys := make([][]byte, layers)
			for i := range keys {
				keys[i], _ = s.NewSymKey(r)
			}
			msg := []byte("innermost")
			ct := msg
			for i := layers - 1; i >= 0; i-- {
				var err error
				ct, err = s.SymSeal(r, keys[i], ct)
				if err != nil {
					t.Fatal(err)
				}
			}
			if want := len(msg) + layers*s.SymOverhead(); len(ct) != want {
				t.Fatalf("onion size %d, want %d", len(ct), want)
			}
			for i := 0; i < layers; i++ {
				var err error
				ct, err = s.SymOpen(keys[i], ct)
				if err != nil {
					t.Fatalf("peeling layer %d: %v", i, err)
				}
			}
			if !bytes.Equal(ct, msg) {
				t.Fatal("peeled onion != message")
			}
		})
	}
}

func TestQuickNullRoundTrip(t *testing.T) {
	s := Null{}
	f := func(seed int64, msg []byte) bool {
		r := rng(seed)
		kp, err := s.GenerateKeyPair(r)
		if err != nil {
			return false
		}
		ct, err := s.Seal(r, kp.Public, msg)
		if err != nil {
			return false
		}
		pt, err := s.Open(kp.Private, ct)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterministicKeygen(t *testing.T) {
	for _, s := range suites() {
		a, _ := s.GenerateKeyPair(rng(99))
		b, _ := s.GenerateKeyPair(rng(99))
		if !bytes.Equal(a.Public, b.Public) {
			t.Errorf("%s: keygen not deterministic for a fixed seed", s.Name())
		}
	}
}

func BenchmarkECIESSeal(b *testing.B) {
	s := ECIES{}
	r := rng(1)
	kp, _ := s.GenerateKeyPair(r)
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(r, kp.Public, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNullSeal(b *testing.B) {
	s := Null{}
	r := rng(1)
	kp, _ := s.GenerateKeyPair(r)
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(r, kp.Public, msg); err != nil {
			b.Fatal(err)
		}
	}
}
