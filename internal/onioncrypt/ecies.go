package onioncrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/sha256"
	"fmt"
	"io"
)

const (
	x25519KeySize = 32
	gcmNonceSize  = 12
	gcmTagSize    = 16
)

// ECIES is the real cryptography suite: X25519 + SHA-256 KDF + AES-GCM.
//
// Seal format:   ephemeralPub(32) || AES-GCM(ct+tag)        — nonce is all
// zeros, safe because every seal uses a fresh ephemeral key.
// SymSeal format: nonce(12) || AES-GCM(ct+tag).
type ECIES struct{}

var _ Suite = ECIES{}

// Name returns "ecies".
func (ECIES) Name() string { return "ecies" }

// newX25519Key derives a private key from 32 bytes of r. We bypass
// ecdh.GenerateKey because recent Go releases may ignore the caller's
// random source there, and simulations need determinism from a seeded
// reader. X25519 accepts any 32-byte string as a private key (clamping
// happens inside the scalar multiplication).
func newX25519Key(r io.Reader) (*ecdh.PrivateKey, error) {
	seed := make([]byte, x25519KeySize)
	if _, err := io.ReadFull(r, seed); err != nil {
		return nil, fmt.Errorf("onioncrypt: drawing X25519 key: %w", err)
	}
	priv, err := ecdh.X25519().NewPrivateKey(seed)
	if err != nil {
		return nil, fmt.Errorf("onioncrypt: deriving X25519 key: %w", err)
	}
	return priv, nil
}

// GenerateKeyPair creates an X25519 key pair.
func (ECIES) GenerateKeyPair(r io.Reader) (KeyPair, error) {
	priv, err := newX25519Key(r)
	if err != nil {
		return KeyPair{}, err
	}
	return KeyPair{
		Public:  PublicKey(priv.PublicKey().Bytes()),
		Private: PrivateKey(priv.Bytes()),
	}, nil
}

// kdf derives an AES-256 key from the ECDH shared secret, bound to both
// public keys.
func kdf(shared, ephPub, recipientPub []byte) []byte {
	h := sha256.New()
	h.Write([]byte("resilientmix-ecies-v1"))
	h.Write(shared)
	h.Write(ephPub)
	h.Write(recipientPub)
	return h.Sum(nil)
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Seal encrypts plaintext to pub with an ephemeral X25519 key.
func (e ECIES) Seal(r io.Reader, pub PublicKey, plaintext []byte) ([]byte, error) {
	return seal(e, r, pub, plaintext)
}

// SealInPlace encrypts the plaintext between the ephemeral public key
// and the tag it is about to get. The plaintext is exactly where its
// ciphertext goes, the one overlap cipher.AEAD allows.
func (ECIES) SealInPlace(r io.Reader, pub PublicKey, sealed []byte) error {
	if len(sealed) < x25519KeySize+gcmTagSize {
		return tooShort(len(sealed))
	}
	recipient, err := ecdh.X25519().NewPublicKey(pub)
	if err != nil {
		return fmt.Errorf("onioncrypt: bad recipient key: %w", err)
	}
	eph, err := newX25519Key(r)
	if err != nil {
		return err
	}
	shared, err := eph.ECDH(recipient)
	if err != nil {
		return fmt.Errorf("onioncrypt: ECDH: %w", err)
	}
	ephPub := eph.PublicKey().Bytes()
	gcm, err := newGCM(kdf(shared, ephPub, pub))
	if err != nil {
		return err
	}
	var nonce [gcmNonceSize]byte // zero: key is single-use
	copy(sealed, ephPub)
	ct := sealed[x25519KeySize : len(sealed)-gcmTagSize]
	gcm.Seal(ct[:0], nonce[:], ct, nil)
	return nil
}

// Open decrypts a sealed ciphertext with the private key.
func (ECIES) Open(priv PrivateKey, ciphertext []byte) ([]byte, error) {
	// Checked here too, as it always was before the key is looked at:
	// what is too short to be a ciphertext does not pay for parsing it.
	if len(ciphertext) < x25519KeySize+gcmTagSize {
		return nil, ErrDecrypt
	}
	o, err := newX25519Opener(priv)
	if err != nil {
		return nil, err
	}
	return o.Open(ciphertext)
}

// x25519Opener is a node's private key with the work that depends on
// nothing but the key done: crypto/ecdh derives the public half — a
// scalar multiplication, as costly as the key agreement itself — every
// time it parses a private key.
type x25519Opener struct {
	priv *ecdh.PrivateKey
	pub  []byte
}

// NewOpener parses an X25519 private key.
func (ECIES) NewOpener(priv PrivateKey) (Opener, error) {
	return newX25519Opener(priv)
}

func newX25519Opener(priv PrivateKey) (*x25519Opener, error) {
	self, err := ecdh.X25519().NewPrivateKey(priv)
	if err != nil {
		return nil, fmt.Errorf("onioncrypt: bad private key: %w", err)
	}
	return &x25519Opener{priv: self, pub: self.PublicKey().Bytes()}, nil
}

// Open decrypts a ciphertext sealed to the key.
func (o *x25519Opener) Open(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < x25519KeySize+gcmTagSize {
		return nil, ErrDecrypt
	}
	ephPub, err := ecdh.X25519().NewPublicKey(ciphertext[:x25519KeySize])
	if err != nil {
		return nil, ErrDecrypt
	}
	shared, err := o.priv.ECDH(ephPub)
	if err != nil {
		return nil, ErrDecrypt
	}
	gcm, err := newGCM(kdf(shared, ciphertext[:x25519KeySize], o.pub))
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcmNonceSize)
	pt, err := gcm.Open(nil, nonce, ciphertext[x25519KeySize:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// SealOverhead returns the asymmetric layer overhead (48 bytes).
func (ECIES) SealOverhead() int { return x25519KeySize + gcmTagSize }

// SealPrefix returns the ephemeral public key's size: the tag follows
// the ciphertext.
func (ECIES) SealPrefix() int { return x25519KeySize }

// NewSymKey draws a fresh AES-256 key.
func (ECIES) NewSymKey(r io.Reader) ([]byte, error) {
	key := make([]byte, SymKeySize)
	if _, err := io.ReadFull(r, key); err != nil {
		return nil, fmt.Errorf("onioncrypt: drawing symmetric key: %w", err)
	}
	return key, nil
}

// aesGCM is one AES-256-GCM key with its key schedule and GHASH table
// built: what NewCipher hands out, and what the by-bytes methods build
// for one call.
type aesGCM struct{ aead cipher.AEAD }

// NewCipher schedules an AES-256-GCM key.
func (ECIES) NewCipher(key []byte) (Cipher, error) {
	c, err := newAESGCM(key)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func newAESGCM(key []byte) (aesGCM, error) {
	if len(key) != SymKeySize {
		return aesGCM{}, ErrBadKeySize
	}
	aead, err := newGCM(key)
	return aesGCM{aead}, err
}

// SymSeal encrypts one payload layer with AES-GCM under a random nonce.
func (ECIES) SymSeal(r io.Reader, key, plaintext []byte) ([]byte, error) {
	c, err := newAESGCM(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, gcmNonceSize+len(plaintext)+gcmTagSize)
	if err := c.seal(r, out, plaintext); err != nil {
		return nil, err
	}
	return out, nil
}

// SealInPlace seals the layer whose plaintext sits between the nonce
// and the tag it is about to get.
func (c aesGCM) SealInPlace(r io.Reader, layer []byte) error {
	if len(layer) < gcmNonceSize+gcmTagSize {
		return tooShort(len(layer))
	}
	return c.seal(r, layer, layer[gcmNonceSize:len(layer)-gcmTagSize])
}

// seal fills layer with nonce || AES-GCM(plaintext). plaintext is
// either elsewhere or exactly where its ciphertext goes — the one
// overlap cipher.AEAD allows.
func (c aesGCM) seal(r io.Reader, layer, plaintext []byte) error {
	nonce := layer[:gcmNonceSize]
	if _, err := io.ReadFull(r, nonce); err != nil {
		return fmt.Errorf("onioncrypt: drawing nonce: %w", err)
	}
	c.aead.Seal(nonce, nonce, plaintext, nil)
	return nil
}

// SymOpen decrypts one payload layer into a fresh buffer.
func (ECIES) SymOpen(key, ciphertext []byte) ([]byte, error) {
	c, err := newAESGCM(key)
	if err != nil {
		return nil, err
	}
	return c.Open(ciphertext)
}

// Open decrypts one payload layer into a fresh buffer.
func (c aesGCM) Open(ciphertext []byte) ([]byte, error) {
	return c.open(ciphertext, false)
}

// OpenInPlace decrypts one payload layer where it lies. A layer that
// does not authenticate is wiped, not released.
func (c aesGCM) OpenInPlace(ciphertext []byte) ([]byte, error) {
	return c.open(ciphertext, true)
}

// open opens one layer into a fresh buffer or, in place, over the
// layer's own ciphertext — starting exactly where it starts, the one
// overlap cipher.AEAD allows.
func (c aesGCM) open(ciphertext []byte, inPlace bool) ([]byte, error) {
	if len(ciphertext) < gcmNonceSize+gcmTagSize {
		return nil, ErrDecrypt
	}
	var dst []byte
	if inPlace {
		dst = ciphertext[gcmNonceSize:gcmNonceSize]
	}
	pt, err := c.aead.Open(dst, ciphertext[:gcmNonceSize], ciphertext[gcmNonceSize:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// SymOverhead returns the symmetric layer overhead (28 bytes).
func (ECIES) SymOverhead() int { return gcmNonceSize + gcmTagSize }

// SymPrefix returns the nonce size: the tag follows the ciphertext.
func (ECIES) SymPrefix() int { return gcmNonceSize }
