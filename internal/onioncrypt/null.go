package onioncrypt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Null is the simulation suite: no real encryption, but identical
// on-the-wire overheads to ECIES so bandwidth results carry over, and
// key checks that make wrong-recipient or wrong-key opens fail loudly.
//
// Seal format:   recipientPub(32) || len(4) || pad(12) || plaintext
// SymSeal format: key[0:24]-check || len(4) || plaintext       (28 bytes)
//
// The embedded plaintext length gives truncation detection (though not
// integrity). A Null "private key" equals its public key.
type Null struct{}

var _ Suite = Null{}

// nullSymHeader is a Null symmetric layer's whole overhead: all of it
// precedes the plaintext.
const nullSymHeader = gcmNonceSize + gcmTagSize

// Name returns "null".
func (Null) Name() string { return "null" }

// GenerateKeyPair draws 32 random bytes used as both halves.
func (Null) GenerateKeyPair(r io.Reader) (KeyPair, error) {
	k := make([]byte, x25519KeySize)
	if _, err := io.ReadFull(r, k); err != nil {
		return KeyPair{}, fmt.Errorf("onioncrypt: null keygen: %w", err)
	}
	return KeyPair{Public: PublicKey(k), Private: PrivateKey(k)}, nil
}

// Seal tags the plaintext with the recipient key and pads to ECIES size.
func (n Null) Seal(r io.Reader, pub PublicKey, plaintext []byte) ([]byte, error) {
	return seal(n, r, pub, plaintext)
}

// SealInPlace writes the recipient key, the plaintext's length and the
// zero padding in front of the plaintext.
func (Null) SealInPlace(_ io.Reader, pub PublicKey, sealed []byte) error {
	if len(pub) != x25519KeySize {
		return ErrBadKeySize
	}
	if len(sealed) < x25519KeySize+gcmTagSize {
		return tooShort(len(sealed))
	}
	copy(sealed, pub)
	binary.BigEndian.PutUint32(sealed[x25519KeySize:], uint32(len(sealed)-x25519KeySize-gcmTagSize))
	clear(sealed[x25519KeySize+4 : x25519KeySize+gcmTagSize])
	return nil
}

// Open verifies the recipient tag and embedded length, then strips the
// header.
func (n Null) Open(priv PrivateKey, ciphertext []byte) ([]byte, error) {
	o, err := n.NewOpener(priv)
	if err != nil {
		return nil, err
	}
	return o.Open(ciphertext)
}

// nullOpener and nullCipher are a Null key seen as a handle: a pointer
// to the key's own bytes, so making one allocates nothing.
type (
	nullOpener [x25519KeySize]byte
	nullCipher [SymKeySize]byte
)

// NewOpener checks the key's size.
func (Null) NewOpener(priv PrivateKey) (Opener, error) {
	if len(priv) != x25519KeySize {
		return nil, ErrBadKeySize
	}
	return (*nullOpener)(priv), nil
}

// Open verifies the recipient tag and embedded length, then strips the
// header.
func (o *nullOpener) Open(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < x25519KeySize+gcmTagSize {
		return nil, ErrDecrypt
	}
	if !bytes.Equal(ciphertext[:x25519KeySize], o[:]) {
		return nil, ErrDecrypt
	}
	pt := ciphertext[x25519KeySize+gcmTagSize:]
	if binary.BigEndian.Uint32(ciphertext[x25519KeySize:]) != uint32(len(pt)) {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// SealOverhead matches ECIES (48 bytes).
func (Null) SealOverhead() int { return x25519KeySize + gcmTagSize }

// SealPrefix is the whole overhead.
func (Null) SealPrefix() int { return x25519KeySize + gcmTagSize }

// NewSymKey draws 32 random bytes.
func (Null) NewSymKey(r io.Reader) ([]byte, error) {
	key := make([]byte, SymKeySize)
	if _, err := io.ReadFull(r, key); err != nil {
		return nil, fmt.Errorf("onioncrypt: null symmetric key: %w", err)
	}
	return key, nil
}

// NewCipher checks the key's size.
func (Null) NewCipher(key []byte) (Cipher, error) {
	if len(key) != SymKeySize {
		return nil, ErrBadKeySize
	}
	return (*nullCipher)(key), nil
}

// SymSeal prefixes a key fingerprint and the plaintext length, matching
// the ECIES layer size.
func (n Null) SymSeal(r io.Reader, key, plaintext []byte) ([]byte, error) {
	c, err := n.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, nullSymHeader+len(plaintext))
	copy(out[nullSymHeader:], plaintext)
	if err := c.SealInPlace(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SealInPlace writes the fingerprint and length in front of the
// plaintext.
func (c *nullCipher) SealInPlace(_ io.Reader, layer []byte) error {
	if len(layer) < nullSymHeader {
		return tooShort(len(layer))
	}
	copy(layer, c[:nullSymHeader-4])
	binary.BigEndian.PutUint32(layer[nullSymHeader-4:], uint32(len(layer)-nullSymHeader))
	return nil
}

// SymOpen verifies the key fingerprint and embedded length, then strips
// the header.
func (n Null) SymOpen(key, ciphertext []byte) ([]byte, error) {
	c, err := n.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return c.Open(ciphertext)
}

// Open verifies the key fingerprint and embedded length, then strips
// the header.
func (c *nullCipher) Open(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < nullSymHeader {
		return nil, ErrDecrypt
	}
	if !bytes.Equal(ciphertext[:nullSymHeader-4], c[:nullSymHeader-4]) {
		return nil, ErrDecrypt
	}
	pt := ciphertext[nullSymHeader:]
	if binary.BigEndian.Uint32(ciphertext[nullSymHeader-4:]) != uint32(len(pt)) {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// OpenInPlace is Open: nothing is decrypted, so the plaintext is a
// sub-slice of the layer either way.
func (c *nullCipher) OpenInPlace(ciphertext []byte) ([]byte, error) {
	return c.Open(ciphertext)
}

// SymOverhead matches ECIES (28 bytes).
func (Null) SymOverhead() int { return nullSymHeader }

// SymPrefix is the whole overhead.
func (Null) SymPrefix() int { return nullSymHeader }
