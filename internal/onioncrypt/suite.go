// Package onioncrypt provides the cryptographic primitives for onion
// construction: a PKI-style asymmetric seal (encrypt to a node's public
// key, §4 "the system relies on a PKI") and symmetric payload layers
// (§4.2 "we eliminate the need to perform asymmetric encryption on
// payload due to the symmetric keys").
//
// Two interchangeable Suites are provided:
//
//   - ECIES: real cryptography from the standard library — X25519 key
//     agreement (crypto/ecdh), SHA-256 key derivation, and AES-GCM.
//     Used by the examples and anywhere genuine confidentiality matters.
//   - Null: a structural stand-in with identical on-the-wire overheads
//     but no arithmetic, for large-scale simulations where the paper's
//     metrics (latency, bandwidth, resilience) do not depend on actual
//     ciphertext. Wrong-key opens still fail, so protocol bugs surface.
//
// Both suites draw randomness from an injected io.Reader so simulations
// stay deterministic.
package onioncrypt

import (
	"errors"
	"fmt"
	"io"
)

// SymKeySize is the size in bytes of symmetric keys handed out by both
// suites (AES-256).
const SymKeySize = 32

// Errors shared by suite implementations.
var (
	ErrDecrypt    = errors.New("onioncrypt: decryption failed")
	ErrBadKeySize = errors.New("onioncrypt: bad key size")
)

// PublicKey is a node's public key in its serialized form.
type PublicKey []byte

// PrivateKey is a node's private key in its serialized form.
type PrivateKey []byte

// KeyPair bundles a node's asymmetric keys.
type KeyPair struct {
	Public  PublicKey
	Private PrivateKey
}

// Suite is the pluggable cryptography used to build and peel onions.
// Implementations must be safe for concurrent use by independent
// simulations as long as each simulation supplies its own random source
// per call site.
//
// A key is set up once, by whoever owns the state it belongs to. Turning
// key bytes into something that can encrypt is work that depends on
// nothing in the message — under ECIES an AES key schedule and a GHASH
// table (≈ 1.3 KB) for a symmetric key, a scalar multiplication for a
// private one — so the holder of a key that outlives one call (a relay's
// path state, an initiator's path, a responder's stream, a node's own
// private key) calls NewCipher or NewOpener when that state is made,
// keeps the handle in it, and lets it go with the state; nothing else
// refers to a handle, and there is no cache behind the constructors. A
// handle is immutable once made and safe for concurrent use. The
// by-bytes methods (Open, SymSeal, SymOpen) set a handle up for one
// call and drop it: they are for a key used once, and are what a
// handle's output is defined by.
type Suite interface {
	// Name identifies the suite ("ecies" or "null").
	Name() string

	// GenerateKeyPair creates a node key pair using randomness from r.
	GenerateKeyPair(r io.Reader) (KeyPair, error)

	// Seal encrypts plaintext to the holder of pub. Only the matching
	// private key can Open it. It is SealInPlace on a fresh buffer.
	Seal(r io.Reader, pub PublicKey, plaintext []byte) ([]byte, error)

	// SealInPlace seals to the holder of pub the ciphertext that fills
	// the whole of sealed, whose plaintext the caller has already put
	// where it stays: sealed[SealPrefix() :
	// len(sealed)-(SealOverhead()-SealPrefix())]. It draws from r what
	// Seal draws and leaves in sealed the bytes Seal would have
	// returned, without a second buffer: a builder lays a nested onion
	// out in one buffer and seals it from the inside out.
	SealInPlace(r io.Reader, pub PublicKey, sealed []byte) error

	// Open decrypts a sealed ciphertext with the private key:
	// NewOpener(priv) and its Open, in one call.
	Open(priv PrivateKey, ciphertext []byte) ([]byte, error)

	// NewOpener parses a private key once, for every ciphertext sealed
	// to it. A key the suite cannot use is refused here.
	NewOpener(priv PrivateKey) (Opener, error)

	// SealOverhead is the constant size difference between a sealed
	// ciphertext and its plaintext.
	SealOverhead() int

	// SealPrefix is how many of SealOverhead's bytes a sealed
	// ciphertext puts before its plaintext; the rest follow it.
	SealPrefix() int

	// NewSymKey draws a fresh symmetric key.
	NewSymKey(r io.Reader) ([]byte, error)

	// NewCipher sets a symmetric key up once, for every layer sealed or
	// opened under it. A key that is not SymKeySize bytes is refused
	// here with ErrBadKeySize. The handle may refer to key's bytes: they
	// are the handle's from now on and must not change.
	NewCipher(key []byte) (Cipher, error)

	// SymSeal encrypts plaintext under a symmetric key (one payload
	// onion layer). The result is a fresh buffer; plaintext is only
	// read.
	SymSeal(r io.Reader, key, plaintext []byte) ([]byte, error)

	// SymOpen decrypts one symmetric layer as Cipher.Open does.
	SymOpen(key, ciphertext []byte) ([]byte, error)

	// SymOverhead is the constant size difference added by SymSeal.
	SymOverhead() int

	// SymPrefix is how many of SymOverhead's bytes a sealed layer puts
	// before its plaintext; the rest follow it.
	SymPrefix() int
}

// Cipher is one symmetric key, set up by Suite.NewCipher.
type Cipher interface {
	// SealInPlace seals the layer that fills the whole of layer, whose
	// plaintext the caller has already put where it stays:
	// layer[SymPrefix() : len(layer)-(SymOverhead()-SymPrefix())]. It
	// draws from r what SymSeal draws and leaves in layer the bytes
	// SymSeal would have returned, without a second buffer.
	SealInPlace(r io.Reader, layer []byte) error

	// OpenInPlace decrypts one symmetric layer into the storage of
	// ciphertext and returns the plaintext as a sub-slice of it.
	// ciphertext is consumed: after the call, failed or not, only the
	// returned slice means anything.
	OpenInPlace(ciphertext []byte) ([]byte, error)

	// Open decrypts one symmetric layer into a buffer of its own (or,
	// where nothing is decrypted, a sub-slice of ciphertext); ciphertext
	// is left intact and may be opened again.
	Open(ciphertext []byte) ([]byte, error)
}

// Opener is one private key, parsed by Suite.NewOpener.
type Opener interface {
	// Open decrypts a ciphertext sealed to the key's public half into a
	// buffer of its own (or, where nothing is decrypted, a sub-slice of
	// ciphertext).
	Open(ciphertext []byte) ([]byte, error)
}

// seal is Suite.Seal for both suites: the plaintext copied into a
// buffer of its own and sealed there.
func seal(s Suite, r io.Reader, pub PublicKey, plaintext []byte) ([]byte, error) {
	out := make([]byte, s.SealOverhead()+len(plaintext))
	copy(out[s.SealPrefix():], plaintext)
	if err := s.SealInPlace(r, pub, out); err != nil {
		return nil, err
	}
	return out, nil
}

// tooShort is SealInPlace's and Cipher.SealInPlace's error for a
// buffer that cannot hold what it is to be sealed into.
func tooShort(n int) error {
	return fmt.Errorf("onioncrypt: %d-byte buffer cannot hold a layer", n)
}
