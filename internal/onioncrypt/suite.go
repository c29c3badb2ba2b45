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
type Suite interface {
	// Name identifies the suite ("ecies" or "null").
	Name() string

	// GenerateKeyPair creates a node key pair using randomness from r.
	GenerateKeyPair(r io.Reader) (KeyPair, error)

	// Seal encrypts plaintext to the holder of pub. Only the matching
	// private key can Open it.
	Seal(r io.Reader, pub PublicKey, plaintext []byte) ([]byte, error)

	// Open decrypts a sealed ciphertext with the private key.
	Open(priv PrivateKey, ciphertext []byte) ([]byte, error)

	// SealOverhead is the constant size difference between a sealed
	// ciphertext and its plaintext.
	SealOverhead() int

	// NewSymKey draws a fresh symmetric key.
	NewSymKey(r io.Reader) ([]byte, error)

	// SymSeal encrypts plaintext under a symmetric key (one payload
	// onion layer). The result is a fresh buffer; plaintext is only
	// read.
	SymSeal(r io.Reader, key, plaintext []byte) ([]byte, error)

	// SymOpen decrypts one symmetric layer into a buffer of its own (or,
	// where nothing is decrypted, a sub-slice of ciphertext); ciphertext
	// is left intact and may be opened again.
	SymOpen(key, ciphertext []byte) ([]byte, error)

	// SymOverhead is the constant size difference added by SymSeal.
	SymOverhead() int

	// SymPrefix is how many of SymOverhead's bytes a sealed layer puts
	// before its plaintext; the rest follow it.
	SymPrefix() int

	// SymSealInPlace seals the layer that fills the whole of layer, whose
	// plaintext the caller has already put where it stays:
	// layer[SymPrefix() : len(layer)-(SymOverhead()-SymPrefix())]. It
	// draws from r what SymSeal draws and leaves in layer the bytes
	// SymSeal would have returned, without a second buffer.
	SymSealInPlace(r io.Reader, key, layer []byte) error

	// SymOpenInPlace decrypts one symmetric layer into the storage of
	// ciphertext and returns the plaintext as a sub-slice of it.
	// ciphertext is consumed: after the call, failed or not, only the
	// returned slice means anything.
	SymOpenInPlace(key, ciphertext []byte) ([]byte, error)
}
