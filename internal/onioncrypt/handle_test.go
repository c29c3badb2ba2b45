package onioncrypt

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// The by-bytes methods define what a handle does: the tests here hold
// Cipher and Opener to SymSeal, SymOpen and Open — same bytes out, same
// randomness drawn, same inputs refused with the same error.

var handleSizes = []int{0, 13, 1 << 10, 128 << 10}

// sameVerdict requires a handle's answer to be the by-bytes method's:
// both refuse with the same sentinel, or both return the same bytes.
func sameVerdict(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrDecrypt) != errors.Is(wantErr, ErrDecrypt) {
		t.Fatalf("%s: handle says %v, by bytes %v", what, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: handle and by-bytes plaintexts differ", what)
	}
}

func TestCipherMatchesSuite(t *testing.T) {
	for _, s := range suites() {
		for _, size := range handleSizes {
			t.Run(fmt.Sprintf("%s/%d", s.Name(), size), func(t *testing.T) {
				key, _ := s.NewSymKey(rng(20))
				otherKey, _ := s.NewSymKey(rng(21))
				c, err := s.NewCipher(bytes.Clone(key))
				if err != nil {
					t.Fatal(err)
				}
				other, err := s.NewCipher(bytes.Clone(otherKey))
				if err != nil {
					t.Fatal(err)
				}
				msg := make([]byte, size)
				rng(22).Read(msg)

				oracle := rng(23)
				want, err := s.SymSeal(oracle, key, msg)
				if err != nil {
					t.Fatal(err)
				}
				r := rng(23)
				layer := make([]byte, len(want))
				copy(layer[s.SymPrefix():], msg)
				if err := c.SealInPlace(r, layer); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(layer, want) {
					t.Fatal("SealInPlace differs from SymSeal under the same reader")
				}
				if r.Int63() != oracle.Int63() {
					t.Fatal("SealInPlace drew a different amount of randomness than SymSeal")
				}

				// check opens ct through every form under one key.
				check := func(what string, h Cipher, k, ct []byte) {
					t.Helper()
					pt, wantErr := s.SymOpen(k, ct)
					got, err := h.Open(ct)
					sameVerdict(t, what+", Open", got, err, pt, wantErr)
					got, err = h.OpenInPlace(bytes.Clone(ct))
					sameVerdict(t, what+", OpenInPlace", got, err, pt, wantErr)
				}
				check("the sealed layer", c, key, want)
				if pt, err := c.Open(want); err != nil || !bytes.Equal(pt, msg) {
					t.Fatalf("the sealed layer did not open to its plaintext: %v", err)
				}
				check("the wrong key", other, otherKey, want)
				if _, err := other.Open(want); err == nil {
					t.Fatal("the wrong key opened the layer")
				}
				for cut := 0; cut < s.SymOverhead(); cut++ {
					check(fmt.Sprintf("cut to %d bytes", cut), c, key, want[:cut])
				}
				if size > 0 {
					check("a byte short", c, key, want[:len(want)-1])
				}
				for _, at := range []int{0, len(want) / 2, len(want) - 1} {
					bad := bytes.Clone(want)
					bad[at] ^= 0x04
					check(fmt.Sprintf("byte %d flipped", at), c, key, bad)
					// ECIES releases nothing of a layer it refuses: the
					// in-place open wipes where the plaintext would be.
					if _, err := c.OpenInPlace(bad); s.Name() == "ecies" && (err == nil || (size >= 13 && bytes.Contains(bad, msg[:13]))) {
						t.Fatalf("byte %d flipped: OpenInPlace err %v, or plaintext left behind", at, err)
					}
				}

				for _, n := range []int{0, 7, 16, 31, 33} {
					_, err := s.NewCipher(make([]byte, n))
					_, sealErr := s.SymSeal(rng(1), make([]byte, n), msg)
					_, openErr := s.SymOpen(make([]byte, n), want)
					for _, e := range []error{err, sealErr, openErr} {
						if !errors.Is(e, ErrBadKeySize) {
							t.Fatalf("a %d-byte key: NewCipher %v, SymSeal %v, SymOpen %v, want ErrBadKeySize from each", n, err, sealErr, openErr)
						}
					}
				}
			})
		}
	}
}

func TestOpenerMatchesSuite(t *testing.T) {
	for _, s := range suites() {
		r := rng(30)
		kp, _ := s.GenerateKeyPair(r)
		mallory, _ := s.GenerateKeyPair(r)
		o, err := s.NewOpener(bytes.Clone(kp.Private))
		if err != nil {
			t.Fatal(err)
		}
		wrong, err := s.NewOpener(bytes.Clone(mallory.Private))
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range handleSizes {
			msg := make([]byte, size)
			rng(31).Read(msg)
			ct, err := s.Seal(r, kp.Public, msg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, h Opener, priv PrivateKey, ct []byte) {
				t.Helper()
				want, wantErr := s.Open(priv, ct)
				got, err := h.Open(ct)
				sameVerdict(t, fmt.Sprintf("%s/%d: %s", s.Name(), size, what), got, err, want, wantErr)
			}
			check("the sealed message", o, kp.Private, ct)
			if pt, err := o.Open(ct); err != nil || !bytes.Equal(pt, msg) {
				t.Fatalf("%s/%d: the sealed message did not open to its plaintext: %v", s.Name(), size, err)
			}
			check("the wrong key", wrong, mallory.Private, ct)
			if _, err := wrong.Open(ct); err == nil {
				t.Fatalf("%s/%d: the wrong key opened the message", s.Name(), size)
			}
			for _, cut := range []int{0, 1, s.SealOverhead() - 1, len(ct) - 1} {
				check(fmt.Sprintf("cut to %d bytes", cut), o, kp.Private, ct[:cut])
			}
			for _, at := range []int{0, x25519KeySize, len(ct) - 1} {
				bad := bytes.Clone(ct)
				bad[at] ^= 0x04
				check(fmt.Sprintf("byte %d flipped", at), o, kp.Private, bad)
			}
		}
		for _, n := range []int{0, 5, 31, 33} {
			_, err := s.NewOpener(make(PrivateKey, n))
			_, openErr := s.Open(make(PrivateKey, n), make([]byte, 64))
			if err == nil || openErr == nil {
				t.Fatalf("%s: a %d-byte private key: NewOpener %v, Open %v", s.Name(), n, err, openErr)
			}
		}
	}
}

// TestCipherConcurrent uses one Cipher and one Opener from eight
// goroutines at once, each on buffers of its own — what a relay's accept
// loop does with two frames of one stream — for the race detector.
func TestCipherConcurrent(t *testing.T) {
	for _, s := range suites() {
		r := rng(40)
		key, _ := s.NewSymKey(r)
		c, err := s.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		kp, _ := s.GenerateKeyPair(r)
		o, err := s.NewOpener(kp.Private)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rng(int64(41 + g))
				msg := bytes.Repeat([]byte{byte(g)}, 100+g)
				sealed, err := s.Seal(r, kp.Public, msg)
				if err != nil {
					t.Error(err)
					return
				}
				layer := make([]byte, len(msg)+s.SymOverhead())
				for i := 0; i < 50; i++ {
					copy(layer[s.SymPrefix():], msg)
					if err := c.SealInPlace(r, layer); err != nil {
						t.Error(err)
						return
					}
					if pt, err := c.Open(layer); err != nil || !bytes.Equal(pt, msg) {
						t.Errorf("%s: goroutine %d: Open: %v", s.Name(), g, err)
						return
					}
					if pt, err := c.OpenInPlace(layer); err != nil || !bytes.Equal(pt, msg) {
						t.Errorf("%s: goroutine %d: OpenInPlace: %v", s.Name(), g, err)
						return
					}
					if pt, err := o.Open(sealed); err != nil || !bytes.Equal(pt, msg) {
						t.Errorf("%s: goroutine %d: Opener.Open: %v", s.Name(), g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// FuzzCipherOpen hands a key of any length and a ciphertext at any
// offset of its buffer to both forms of the symmetric open: neither may
// panic, and they agree on the verdict and on the plaintext.
func FuzzCipherOpen(f *testing.F) {
	for _, s := range suites() {
		key, _ := s.NewSymKey(rng(50))
		ct, _ := s.SymSeal(rng(51), key, []byte("a payload layer"))
		null := s.Name() == "null"
		f.Add(key, ct, uint16(0), null)
		f.Add(key, append([]byte("frame header!"), ct...), uint16(13), null)
		f.Add(key[:7], ct, uint16(0), null)
		f.Add(key, ct[:s.SymOverhead()-1], uint16(0), null)
	}
	f.Fuzz(func(t *testing.T, key, buf []byte, off uint16, null bool) {
		var s Suite = ECIES{}
		if null {
			s = Null{}
		}
		ct := buf[min(int(off), len(buf)):]
		want, wantErr := s.SymOpen(key, ct)
		c, err := s.NewCipher(bytes.Clone(key))
		if err != nil {
			if !errors.Is(err, ErrBadKeySize) || !errors.Is(wantErr, ErrBadKeySize) {
				t.Fatalf("a %d-byte key: NewCipher %v, SymOpen %v", len(key), err, wantErr)
			}
			return
		}
		got, err := c.Open(ct)
		sameVerdict(t, "Open", got, err, want, wantErr)
		got, err = c.OpenInPlace(bytes.Clone(ct))
		sameVerdict(t, "OpenInPlace", got, err, want, wantErr)
	})
}

// BenchmarkOpen prices the asymmetric open both ways: by bytes the
// private key is parsed — its public half derived — on every call, an
// Opener did that once.
func BenchmarkOpen(b *testing.B) {
	s := ECIES{}
	r := rng(60)
	kp, _ := s.GenerateKeyPair(r)
	ct, _ := s.Seal(r, kp.Public, make([]byte, SymKeySize))
	o, err := s.NewOpener(kp.Private)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Open(kp.Private, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("opener", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := o.Open(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCipherSealInPlace1K prices one 1 KB layer both ways: by bytes
// the key schedule and the GHASH table are built (and the layer gets a
// buffer) on every call, a Cipher seals where the plaintext lies.
func BenchmarkCipherSealInPlace1K(b *testing.B) {
	s := ECIES{}
	r := rng(61)
	key, _ := s.NewSymKey(r)
	c, err := s.NewCipher(key)
	if err != nil {
		b.Fatal(err)
	}
	layer := make([]byte, 1<<10+s.SymOverhead())
	plain := layer[s.SymPrefix() : s.SymPrefix()+1<<10]
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(1 << 10)
		for i := 0; i < b.N; i++ {
			if _, err := s.SymSeal(r, key, plain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cipher", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(1 << 10)
		for i := 0; i < b.N; i++ {
			if err := c.SealInPlace(r, layer); err != nil {
				b.Fatal(err)
			}
		}
	})
}
