package onion

import (
	"fmt"
	"io"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

// Directory is the PKI: every node's key pair, with public keys visible
// to everyone. The paper assumes "each node learns other nodes' public
// keys through some mechanism (e.g., out-of-band or piggybacking in
// messages)" (§4); the directory models that mechanism.
//
// A directory serves the nodes of one simulated world, which run on one
// goroutine: they share its spares, the relay path states and initiator
// path records given back for reuse.
type Directory struct {
	suite  onioncrypt.Suite
	keys   []onioncrypt.KeyPair
	spares spares
}

// NewDirectory generates key pairs for n nodes using the suite and the
// random source.
func NewDirectory(suite onioncrypt.Suite, r io.Reader, n int) (*Directory, error) {
	if n <= 0 {
		return nil, fmt.Errorf("onion: directory size must be positive, got %d", n)
	}
	d := &Directory{suite: suite, keys: make([]onioncrypt.KeyPair, n)}
	for i := range d.keys {
		kp, err := suite.GenerateKeyPair(r)
		if err != nil {
			return nil, fmt.Errorf("onion: generating key for node %d: %w", i, err)
		}
		d.keys[i] = kp
	}
	return d, nil
}

// Suite returns the directory's cryptography suite.
func (d *Directory) Suite() onioncrypt.Suite { return d.suite }

// Size returns the number of nodes.
func (d *Directory) Size() int { return len(d.keys) }

// Public returns a node's public key.
func (d *Directory) Public(id netsim.NodeID) onioncrypt.PublicKey {
	return d.keys[id].Public
}

// Private returns a node's private key. In the real system only the node
// itself holds this; the simulator hands it to that node's Relay and
// Responder.
func (d *Directory) Private(id netsim.NodeID) onioncrypt.PrivateKey {
	return d.keys[id].Private
}
