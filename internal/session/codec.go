package session

import (
	"encoding/binary"
	"fmt"

	"resilientmix/internal/erasure"
	"resilientmix/internal/wire"
)

// Application-layer message kinds carried inside the onions. The
// numbers and byte layouts are wire format: the simulator's message
// sizes (and its pinned net.bytes) depend on them, and a live fleet is
// one version.
const (
	KindSegment byte = 1 // initiator → responder: one coded segment
	KindSegAck  byte = 2 // responder → initiator: segment or probe received
	KindRespSeg byte = 3 // responder → initiator: one coded response segment
	KindProbe   byte = 4 // initiator → responder: path liveness probe

	// Mutual-anonymity kinds (§3's "additional level of redirection"):
	// both endpoints hide behind their own onion paths to a rendezvous
	// node that glues the two path sets together.
	KindRegister     byte = 5 // hidden responder → rendezvous: register a service tag
	KindToService    byte = 6 // initiator → rendezvous: coded segment for a tag
	KindInbound      byte = 7 // rendezvous → either endpoint (reverse path): forwarded segment
	KindServiceReply byte = 8 // hidden responder → rendezvous: coded reply segment

	// KindCover is in-session cover padding (§4.6): the responder counts
	// and discards it, and a degraded session sheds it first.
	KindCover byte = 9
)

// Segment is one coded message segment (§4.2): the message ID that
// lets the receiver correlate segments, the segment's index, the code
// shape (n, m) needed to rebuild the decoder, and the coded bytes.
// KindSegment and KindRespSeg share the layout.
type Segment struct {
	MID    uint64
	Index  int32
	Total  int32 // n
	Needed int32 // m
	Data   []byte
}

// SegmentOverhead is the encoding overhead of a Segment beyond its
// data bytes.
const SegmentOverhead = 1 + 8 + 4 + 4 + 4 + 4

// Encode lays the segment out under the given kind (KindSegment or
// KindRespSeg).
func (s Segment) Encode(kind byte) []byte {
	return s.AppendEncode(make([]byte, 0, SegmentOverhead+len(s.Data)), kind)
}

// AppendEncode appends what Encode returns to b: a caller that has the
// bytes' final place ready (the inside of a payload onion) copies the
// data there once.
func (s Segment) AppendEncode(b []byte, kind byte) []byte {
	b = append(b, kind)
	b = binary.BigEndian.AppendUint64(b, s.MID)
	b = binary.BigEndian.AppendUint32(b, uint32(s.Index))
	b = binary.BigEndian.AppendUint32(b, uint32(s.Total))
	b = binary.BigEndian.AppendUint32(b, uint32(s.Needed))
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Data)))
	return append(b, s.Data...)
}

// Ack names one segment of one message. As KindSegAck it acknowledges
// the segment (§4.5's end-to-end acks); as KindProbe it is a liveness
// probe of path slot Index, which the responder acknowledges like a
// segment and never delivers. Probes double as the §4.3 refreshing
// messages.
type Ack struct {
	MID   uint64
	Index int32
}

// AckSize is the encoded size of an Ack.
const AckSize = 1 + 8 + 4

// Encode lays the ack out under the given kind (KindSegAck or
// KindProbe).
func (a Ack) Encode(kind byte) []byte {
	return a.AppendEncode(make([]byte, 0, AckSize), kind)
}

// AppendEncode appends what Encode returns to b.
func (a Ack) AppendEncode(b []byte, kind byte) []byte {
	b = append(b, kind)
	b = binary.BigEndian.AppendUint64(b, a.MID)
	return binary.BigEndian.AppendUint32(b, uint32(a.Index))
}

// EncodeRegister announces a hidden service tag at a rendezvous node.
func EncodeRegister(tag uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{KindRegister}, tag)
}

// EncodeCover wraps cover padding.
func EncodeCover(pad []byte) []byte {
	b := make([]byte, 0, 1+4+len(pad))
	b = append(b, KindCover)
	b = binary.BigEndian.AppendUint32(b, uint32(len(pad)))
	return append(b, pad...)
}

// ServiceSegment is one coded segment traveling initiator → rendezvous
// (KindToService), rendezvous → endpoint (KindInbound), or hidden
// responder → rendezvous (KindServiceReply). Conv correlates the
// conversation across the two path sets; Tag routes KindToService.
type ServiceSegment struct {
	Kind byte
	Tag  uint64 // KindToService only
	Segment
}

// Conv is the conversation a service segment belongs to (its MID).
func (s ServiceSegment) Conv() uint64 { return s.MID }

// Encode lays the service segment out.
func (s ServiceSegment) Encode() []byte {
	b := make([]byte, 0, SegmentOverhead+8+len(s.Data))
	b = append(b, s.Kind)
	b = binary.BigEndian.AppendUint64(b, s.Tag)
	b = binary.BigEndian.AppendUint64(b, s.MID)
	b = binary.BigEndian.AppendUint32(b, uint32(s.Index))
	b = binary.BigEndian.AppendUint32(b, uint32(s.Total))
	b = binary.BigEndian.AppendUint32(b, uint32(s.Needed))
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Data)))
	return append(b, s.Data...)
}

// App is the decoded union of the application message kinds: Seg for
// KindSegment and KindRespSeg, Ack for KindSegAck and KindProbe, Tag
// for KindRegister, Service for the three service kinds.
type App struct {
	Kind    byte
	Seg     Segment
	Ack     Ack
	Tag     uint64
	Service ServiceSegment
}

// DecodeApp parses an application payload. Segment data aliases b,
// which the caller owns; cover padding is checked and dropped.
func DecodeApp(b []byte) (App, error) {
	rd := wire.NewReader(b)
	m := App{Kind: rd.Byte()}
	switch m.Kind {
	case KindSegment, KindRespSeg:
		m.Seg = readSegment(rd)
	case KindSegAck, KindProbe:
		m.Ack = Ack{MID: rd.Uint64(), Index: rd.Int32()}
	case KindRegister:
		m.Tag = rd.Uint64()
	case KindToService, KindInbound, KindServiceReply:
		m.Service = ServiceSegment{Kind: m.Kind, Tag: rd.Uint64(), Segment: readSegment(rd)}
	case KindCover:
		rd.Bytes32()
	default:
		return App{}, fmt.Errorf("session: unknown application message kind %d", m.Kind)
	}
	if err := rd.Done(); err != nil {
		return App{}, fmt.Errorf("session: malformed application message: %w", err)
	}
	return m, nil
}

func readSegment(rd *wire.Reader) Segment {
	return Segment{
		MID:    rd.Uint64(),
		Index:  rd.Int32(),
		Total:  rd.Int32(),
		Needed: rd.Int32(),
		Data:   rd.Bytes32(),
	}
}

// ValidCodeShape checks advertised code dimensions before building a
// decoder from untrusted input.
func ValidCodeShape(needed, total int32) bool {
	return needed >= 1 && total >= needed && total <= int32(erasure.MaxSegments)
}
