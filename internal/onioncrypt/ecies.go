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
func (ECIES) Seal(r io.Reader, pub PublicKey, plaintext []byte) ([]byte, error) {
	recipient, err := ecdh.X25519().NewPublicKey(pub)
	if err != nil {
		return nil, fmt.Errorf("onioncrypt: bad recipient key: %w", err)
	}
	eph, err := newX25519Key(r)
	if err != nil {
		return nil, err
	}
	shared, err := eph.ECDH(recipient)
	if err != nil {
		return nil, fmt.Errorf("onioncrypt: ECDH: %w", err)
	}
	ephPub := eph.PublicKey().Bytes()
	gcm, err := newGCM(kdf(shared, ephPub, pub))
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcmNonceSize) // zero: key is single-use
	out := make([]byte, 0, x25519KeySize+len(plaintext)+gcmTagSize)
	out = append(out, ephPub...)
	return gcm.Seal(out, nonce, plaintext, nil), nil
}

// Open decrypts a sealed ciphertext with the private key.
func (ECIES) Open(priv PrivateKey, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < x25519KeySize+gcmTagSize {
		return nil, ErrDecrypt
	}
	self, err := ecdh.X25519().NewPrivateKey(priv)
	if err != nil {
		return nil, fmt.Errorf("onioncrypt: bad private key: %w", err)
	}
	ephPub, err := ecdh.X25519().NewPublicKey(ciphertext[:x25519KeySize])
	if err != nil {
		return nil, ErrDecrypt
	}
	shared, err := self.ECDH(ephPub)
	if err != nil {
		return nil, ErrDecrypt
	}
	gcm, err := newGCM(kdf(shared, ephPub.Bytes(), self.PublicKey().Bytes()))
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

// NewSymKey draws a fresh AES-256 key.
func (ECIES) NewSymKey(r io.Reader) ([]byte, error) {
	key := make([]byte, SymKeySize)
	if _, err := io.ReadFull(r, key); err != nil {
		return nil, fmt.Errorf("onioncrypt: drawing symmetric key: %w", err)
	}
	return key, nil
}

// SymSeal encrypts one payload layer with AES-GCM under a random nonce.
func (ECIES) SymSeal(r io.Reader, key, plaintext []byte) ([]byte, error) {
	if len(key) != SymKeySize {
		return nil, ErrBadKeySize
	}
	out := make([]byte, gcmNonceSize+len(plaintext)+gcmTagSize)
	if err := symSeal(r, key, out, plaintext); err != nil {
		return nil, err
	}
	return out, nil
}

// SymSealInPlace seals the layer whose plaintext sits between the nonce
// and the tag it is about to get.
func (ECIES) SymSealInPlace(r io.Reader, key, layer []byte) error {
	if len(key) != SymKeySize {
		return ErrBadKeySize
	}
	if len(layer) < gcmNonceSize+gcmTagSize {
		return fmt.Errorf("onioncrypt: %d-byte buffer cannot hold a layer", len(layer))
	}
	return symSeal(r, key, layer, layer[gcmNonceSize:len(layer)-gcmTagSize])
}

// symSeal fills layer with nonce || AES-GCM(plaintext). plaintext is
// either elsewhere or exactly where its ciphertext goes — the one
// overlap cipher.AEAD allows.
func symSeal(r io.Reader, key, layer, plaintext []byte) error {
	gcm, err := newGCM(key)
	if err != nil {
		return err
	}
	nonce := layer[:gcmNonceSize]
	if _, err := io.ReadFull(r, nonce); err != nil {
		return fmt.Errorf("onioncrypt: drawing nonce: %w", err)
	}
	gcm.Seal(nonce, nonce, plaintext, nil)
	return nil
}

// SymOpen decrypts one payload layer into a fresh buffer.
func (ECIES) SymOpen(key, ciphertext []byte) ([]byte, error) {
	return symOpen(key, ciphertext, false)
}

// SymOpenInPlace decrypts one payload layer where it lies. A layer that
// does not authenticate is wiped, not released.
func (ECIES) SymOpenInPlace(key, ciphertext []byte) ([]byte, error) {
	return symOpen(key, ciphertext, true)
}

// symOpen opens one layer into a fresh buffer or, in place, over the
// layer's own ciphertext — starting exactly where it starts, the one
// overlap cipher.AEAD allows.
func symOpen(key, ciphertext []byte, inPlace bool) ([]byte, error) {
	if len(key) != SymKeySize {
		return nil, ErrBadKeySize
	}
	if len(ciphertext) < gcmNonceSize+gcmTagSize {
		return nil, ErrDecrypt
	}
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	var dst []byte
	if inPlace {
		dst = ciphertext[gcmNonceSize:gcmNonceSize]
	}
	pt, err := gcm.Open(dst, ciphertext[:gcmNonceSize], ciphertext[gcmNonceSize:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// SymOverhead returns the symmetric layer overhead (28 bytes).
func (ECIES) SymOverhead() int { return gcmNonceSize + gcmTagSize }

// SymPrefix returns the nonce size: the tag follows the ciphertext.
func (ECIES) SymPrefix() int { return gcmNonceSize }
