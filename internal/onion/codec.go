package onion

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/wire"
)

// ErrMalformedOnion is returned when a decrypted layer does not parse.
var ErrMalformedOnion = errors.New("onion: malformed layer")

// KeyLookup resolves a node's public key; *Directory implements it, and
// so does any other PKI source (e.g. a live-deployment roster).
type KeyLookup interface {
	Public(id netsim.NodeID) onioncrypt.PublicKey
}

// BuildConstructOnion produces the nested path-construction onion of
// §4.1 for the relays P_1..P_L with hop keys R_1..R_L and responder D:
//
//	Path_i = < P_{i+1}, R_i, Path_{i+1} >_{PubKey(P_i)},  Path_{L+1} = ⊥
//
// The layer for the terminal relay names the responder as its next hop
// and carries the ⊥ marker so the relay knows the path ends with it.
func BuildConstructOnion(suite onioncrypt.Suite, r io.Reader, dir KeyLookup, relays []netsim.NodeID, responder netsim.NodeID, keys [][]byte) ([]byte, error) {
	return appendConstructOnion(nil, suite, r, dir, relays, responder, keys)
}

// constructHeader is what a construction layer's plaintext holds beside
// its key and inner onion: the next hop, the terminal marker and the
// two lengths.
const constructHeader = 4 + 1 + 4 + 4

// constructOnionSize is the length of the construction onion over
// pathLen relays with hop keys of the suites' size.
func constructOnionSize(suite onioncrypt.Suite, pathLen int) int {
	return pathLen * (suite.SealOverhead() + constructHeader + onioncrypt.SymKeySize)
}

// appendConstructOnion appends the construction onion to dst, growing it
// at most once, and writes every byte where it leaves. With p bytes of a
// sealed layer in front of its plaintext and q behind
// (Suite.SealPrefix), the onion over L relays is
//
//	p | P_2,0,len,R_1,len | p | P_3,0,len,R_2,len | … | p | D,1,len,R_L,0 | q·L
//
// so the layers' headers are laid down first, outermost first, and then
// each layer is sealed in place around what it wraps, innermost first:
// the order BuildConstructOnion has always drawn from r in, so the bytes
// are the ones the layer-by-layer construction gave.
func appendConstructOnion(dst []byte, suite onioncrypt.Suite, r io.Reader, dir KeyLookup, relays []netsim.NodeID, responder netsim.NodeID, keys [][]byte) ([]byte, error) {
	if len(relays) == 0 {
		return nil, fmt.Errorf("onion: a path needs at least one relay")
	}
	if len(keys) != len(relays) {
		return nil, fmt.Errorf("onion: %d keys for %d relays", len(keys), len(relays))
	}
	pre, post := suite.SealPrefix(), suite.SealOverhead()-suite.SealPrefix()
	size := 0
	for _, key := range keys {
		size += pre + constructHeader + len(key) + post
	}
	dst = slices.Grow(dst, size)
	inner := size // the length of what the layer being written wraps
	for i, key := range keys {
		next, terminal := responder, byte(1)
		if i < len(keys)-1 {
			next, terminal = relays[i+1], 0
		}
		inner -= pre + constructHeader + len(key) + post
		dst = dst[:len(dst)+pre]
		dst = binary.BigEndian.AppendUint32(dst, uint32(next))
		dst = append(dst, terminal)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(key)))
		dst = append(dst, key...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(inner))
	}
	at := len(dst)
	for i := len(keys) - 1; i >= 0; i-- {
		at -= pre + constructHeader + len(keys[i])
		dst = dst[:len(dst)+post]
		if err := suite.SealInPlace(r, dir.Public(relays[i]), dst[at:]); err != nil {
			return nil, fmt.Errorf("onion: sealing layer %d: %w", i, err)
		}
	}
	return dst, nil
}

// ConstructLayer is one decrypted layer of a construction onion: the
// next hop, the terminal marker (next hop is the responder and the
// inner onion is ⊥), the hop's symmetric key and the inner onion. Key
// and Inner lie in the opened plaintext, which under Null is the onion
// itself: whoever keeps either past the onion's buffer copies it, as a
// relay's Table copies the key into the state it makes.
type ConstructLayer struct {
	Next     netsim.NodeID
	Terminal bool
	Key      []byte
	Inner    []byte
}

// ParseConstructLayer strips one layer with the relay's private key,
// parsed for this one call; a relay's Table parses it once.
func ParseConstructLayer(suite onioncrypt.Suite, priv onioncrypt.PrivateKey, onion []byte) (ConstructLayer, error) {
	o, err := suite.NewOpener(priv)
	if err != nil {
		return ConstructLayer{}, err
	}
	return parseConstructLayer(o, onion)
}

func parseConstructLayer(priv onioncrypt.Opener, onion []byte) (ConstructLayer, error) {
	pt, err := priv.Open(onion)
	if err != nil {
		return ConstructLayer{}, err
	}
	rd := wire.NewReader(pt)
	layer := ConstructLayer{
		Next:     netsim.NodeID(rd.Int32()),
		Terminal: rd.Bool(),
		Key:      rd.Bytes32(),
		Inner:    rd.Bytes32(),
	}
	if err := rd.Done(); err != nil {
		return ConstructLayer{}, fmt.Errorf("%w: %v", ErrMalformedOnion, err)
	}
	if layer.Terminal != (len(layer.Inner) == 0) {
		return ConstructLayer{}, fmt.Errorf("%w: terminal marker disagrees with ⊥", ErrMalformedOnion)
	}
	return layer, nil
}

// BuildPayloadOnion produces the payload onion of §4.2 (with the §4.4
// last-hop destination field):
//
//	PayLoad_{L+1} = < plain >_{respKey}, < respKey >_{PubKey(D)}
//	PayLoad_L     = < D, PayLoad_{L+1} >_{R_L}
//	PayLoad_i     = < PayLoad_{i+1} >_{R_i}          1 <= i < L
//
// sealedRespKey is < respKey >_{PubKey(D)}, computed once per path by
// the initiator and reused for every message on it.
func BuildPayloadOnion(suite onioncrypt.Suite, r io.Reader, keys [][]byte, responder netsim.NodeID, respKey, sealedRespKey, plain []byte) ([]byte, error) {
	return appendPayloadOnion(nil, suite, r, keys, responder, respKey, sealedRespKey,
		len(plain), func(b []byte) []byte { return append(b, plain...) })
}

// appendPayloadOnion is appendKeyedOnion for keys by their bytes, each
// set up for this one onion; a path's PathKeys sets its keys up once.
func appendPayloadOnion(dst []byte, suite onioncrypt.Suite, r io.Reader, keys [][]byte, responder netsim.NodeID, respKey, sealedRespKey []byte, plainLen int, plain func([]byte) []byte) ([]byte, error) {
	var few [8]onioncrypt.Cipher // the paper's L = 3 and more; append grows past it
	hops := few[:0]
	for i, key := range keys {
		c, err := suite.NewCipher(key)
		if err != nil {
			return nil, fmt.Errorf("onion: keying layer %d: %w", i, err)
		}
		hops = append(hops, c)
	}
	resp, err := suite.NewCipher(respKey)
	if err != nil {
		return nil, fmt.Errorf("onion: keying responder payload: %w", err)
	}
	return appendKeyedOnion(dst, suite, r, hops, responder, resp, sealedRespKey, plainLen, plain)
}

// appendKeyedOnion appends the payload onion to dst, growing it at
// most once, and writes every byte where it leaves. With p bytes of a
// sealed layer in front of its plaintext and q behind (Suite.SymPrefix),
// the onion over L relays is
//
//	p·L | D | len | len,sealedRespKey | len | p | plain | q | q·L
//
// so the headers are laid down first, then the plaintext — plain
// appends exactly plainLen bytes to the slice it is handed and returns
// it — and then each layer is sealed in place around what it wraps,
// innermost first: the order BuildPayloadOnion has always drawn its
// nonces from r in, so the bytes are the ones the layer-by-layer
// construction gave.
func appendKeyedOnion(dst []byte, suite onioncrypt.Suite, r io.Reader, keys []onioncrypt.Cipher, responder netsim.NodeID, respKey onioncrypt.Cipher, sealedRespKey []byte, plainLen int, plain func([]byte) []byte) ([]byte, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("onion: a payload onion needs at least one relay key")
	}
	start := len(dst)
	pre, post := suite.SymPrefix(), suite.SymOverhead()-suite.SymPrefix()
	ct := plainLen + pre + post
	dst = slices.Grow(dst, payloadOnionSize(suite, len(keys), len(sealedRespKey), plainLen))
	dst = dst[:start+len(keys)*pre]
	// Terminal relay layer: the destination override field and the
	// responder blob.
	dst = binary.BigEndian.AppendUint32(dst, uint32(responder))
	dst = binary.BigEndian.AppendUint32(dst, uint32(4+len(sealedRespKey)+4+ct))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(sealedRespKey)))
	dst = append(dst, sealedRespKey...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(ct))
	inner := len(dst)
	dst = plain(dst[:inner+pre])
	if len(dst) != inner+pre+plainLen {
		return nil, fmt.Errorf("onion: payload of %d bytes announced as %d", len(dst)-inner-pre, plainLen)
	}
	dst = dst[:len(dst)+post]
	if err := respKey.SealInPlace(r, dst[inner:]); err != nil {
		return nil, fmt.Errorf("onion: sealing responder payload: %w", err)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		dst = dst[:len(dst)+post]
		if err := keys[i].SealInPlace(r, dst[start+i*pre:]); err != nil {
			return nil, fmt.Errorf("onion: sealing layer %d: %w", i, err)
		}
	}
	return dst, nil
}

// ParseTerminalPayload splits the decrypted terminal-relay layer into
// the destination and the responder blob.
func ParseTerminalPayload(pt []byte) (netsim.NodeID, []byte, error) {
	rd := wire.NewReader(pt)
	dest := netsim.NodeID(rd.Int32())
	blob := rd.Bytes32()
	if err := rd.Done(); err != nil {
		return netsim.Invalid, nil, fmt.Errorf("%w: %v", ErrMalformedOnion, err)
	}
	return dest, blob, nil
}

// ParseResponderBlob splits the responder blob into the sealed key and
// the symmetric ciphertext.
func ParseResponderBlob(blob []byte) (sealedKey, ct []byte, err error) {
	rd := wire.NewReader(blob)
	sealedKey = rd.Bytes32()
	ct = rd.Bytes32()
	if err := rd.Done(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrMalformedOnion, err)
	}
	return sealedKey, ct, nil
}

// PayloadOnionSize predicts the on-the-wire size of the outermost
// payload-onion layer for a path of length L carrying plain bytes of the
// given length — used by the analytic bandwidth model, and exact for
// the onions PathKeys builds.
func PayloadOnionSize(suite onioncrypt.Suite, pathLen, plainLen int) int {
	return payloadOnionSize(suite, pathLen, onioncrypt.SymKeySize+suite.SealOverhead(), plainLen)
}

func payloadOnionSize(suite onioncrypt.Suite, pathLen, sealedKeyLen, plainLen int) int {
	// responder blob: 4 + sealedKey + 4 + ct.
	blob := 4 + sealedKeyLen + 4 + plainLen + suite.SymOverhead()
	// terminal layer plaintext: 4 (dest) + 4 + blob.
	body := 4 + 4 + blob + suite.SymOverhead()
	// remaining L-1 plain symmetric layers.
	return body + (pathLen-1)*suite.SymOverhead()
}
