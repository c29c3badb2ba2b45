package livenet

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

// This file is the one codec of a deployment's two on-disk formats:
// the key file `anonnode -genkey` writes and the roster file every
// node of a fleet reads. cmd/anonnode and internal/cluster both go
// through it, so the formats cannot drift between them.

// keyFile is one node's key pair, hex-encoded.
type keyFile struct {
	Pub  string `json:"pub"`
	Priv string `json:"priv"`
}

// rosterFile is the roster: every peer's id, address and hex public
// key.
type rosterFile struct {
	Peers []rosterPeer `json:"peers"`
}

type rosterPeer struct {
	ID   int    `json:"id"`
	Addr string `json:"addr"`
	Pub  string `json:"pub"`
}

// encodeFile renders v the way both formats are written: indented
// JSON and a final newline. The formats hold only strings and ints,
// which always marshal.
func encodeFile(v any) []byte {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(blob, '\n')
}

// EncodeKey renders a key pair as a key file. It holds the private
// key: write it with mode 0600.
func EncodeKey(kp onioncrypt.KeyPair) []byte {
	return encodeFile(keyFile{
		Pub:  hex.EncodeToString(kp.Public),
		Priv: hex.EncodeToString(kp.Private),
	})
}

// ReadKey reads a key file and returns the private key.
func ReadKey(path string) (onioncrypt.PrivateKey, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var kf keyFile
	if err := json.Unmarshal(blob, &kf); err != nil {
		return nil, fmt.Errorf("livenet: parsing key file %s: %w", path, err)
	}
	priv, err := hex.DecodeString(kf.Priv)
	if err != nil {
		return nil, fmt.Errorf("livenet: key file %s: decoding private key: %w", path, err)
	}
	return priv, nil
}

// EncodeRoster renders peers as a roster file.
func EncodeRoster(peers []Peer) []byte {
	var rf rosterFile
	for _, p := range peers {
		rf.Peers = append(rf.Peers, rosterPeer{ID: int(p.ID), Addr: p.Addr, Pub: hex.EncodeToString(p.Public)})
	}
	return encodeFile(rf)
}

// ReadRoster reads a roster file; NewRoster's rules (dense ids, an
// address and a key for every peer) apply to what it holds.
func ReadRoster(path string) (*Roster, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf rosterFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		return nil, fmt.Errorf("livenet: parsing roster %s: %w", path, err)
	}
	peers := make([]Peer, 0, len(rf.Peers))
	for _, p := range rf.Peers {
		pub, err := hex.DecodeString(p.Pub)
		if err != nil {
			return nil, fmt.Errorf("livenet: roster %s: peer %d: decoding public key: %w", path, p.ID, err)
		}
		peers = append(peers, Peer{ID: netsim.NodeID(p.ID), Addr: p.Addr, Public: pub})
	}
	return NewRoster(peers)
}
