package session

import (
	"bytes"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	seg := Segment{MID: 7, Index: 2, Total: 8, Needed: 4, Data: []byte{1, 2, 3}}
	for _, kind := range []byte{KindSegment, KindRespSeg} {
		enc := seg.Encode(kind)
		if len(enc) != SegmentOverhead+len(seg.Data) {
			t.Fatalf("kind %d: %d bytes, want %d", kind, len(enc), SegmentOverhead+len(seg.Data))
		}
		m, err := DecodeApp(enc)
		if err != nil || m.Kind != kind || m.Seg.MID != 7 || m.Seg.Index != 2 || m.Seg.Total != 8 ||
			m.Seg.Needed != 4 || !bytes.Equal(m.Seg.Data, seg.Data) {
			t.Fatalf("kind %d round trip: %+v, %v", kind, m, err)
		}
	}
	ack := Ack{MID: 9, Index: 1}
	for _, kind := range []byte{KindSegAck, KindProbe} {
		if m, err := DecodeApp(ack.Encode(kind)); err != nil || m.Kind != kind || m.Ack != ack {
			t.Fatalf("kind %d round trip: %+v, %v", kind, m, err)
		}
	}
	if m, err := DecodeApp(EncodeRegister(5)); err != nil || m.Kind != KindRegister || m.Tag != 5 {
		t.Fatalf("register round trip: %+v, %v", m, err)
	}
	svc := ServiceSegment{Kind: KindToService, Tag: 6, Segment: Segment{MID: 7, Index: 1, Total: 2, Needed: 1, Data: []byte("s")}}
	if m, err := DecodeApp(svc.Encode()); err != nil || m.Service.Tag != 6 || m.Service.Conv() != 7 ||
		m.Service.Index != 1 || string(m.Service.Data) != "s" {
		t.Fatalf("service round trip: %+v, %v", m, err)
	}
	if m, err := DecodeApp(EncodeCover(make([]byte, 64))); err != nil || m.Kind != KindCover {
		t.Fatalf("cover round trip: %+v, %v", m, err)
	}
}

func TestDecodeAppRejects(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":          nil,
		"unknown kind":   {99, 0, 0},
		"kind 0":         {0},
		"short ack":      {KindSegAck, 0, 0},
		"trailing bytes": append(Ack{MID: 1}.Encode(KindSegAck), 0xff),
		"length past end": {KindSegment, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1,
			0xff, 0xff, 0xff, 0xff},
	} {
		if _, err := DecodeApp(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzDecodeApp feeds arbitrary bytes to the one application-layer
// decoder, which both ends of a path — simulated or live — run on what
// came out of an onion: it must fail cleanly or return exactly what
// re-encodes to its input, with segment data (which aliases the input)
// inside it. Seeded from the corpora of the two decoders it replaced.
func FuzzDecodeApp(f *testing.F) {
	f.Add(Segment{MID: 1, Index: 0, Total: 4, Needed: 2, Data: []byte("d")}.Encode(KindSegment))
	f.Add(Segment{MID: 7, Index: 1, Total: 4, Needed: 2, Data: []byte("segment")}.Encode(KindSegment))
	f.Add(Ack{MID: 2, Index: 1}.Encode(KindSegAck))
	f.Add(Segment{MID: 3, Index: 0, Total: 2, Needed: 1, Data: []byte("r")}.Encode(KindRespSeg))
	f.Add(Ack{MID: 4, Index: 0}.Encode(KindProbe))
	f.Add(EncodeRegister(5))
	f.Add(ServiceSegment{Kind: KindToService, Tag: 6, Segment: Segment{MID: 7, Total: 2, Needed: 1, Data: []byte("s")}}.Encode())
	f.Add(EncodeCover([]byte("padding")))
	f.Add([]byte{})
	f.Add([]byte{99, 1, 2, 3})
	f.Add([]byte{KindSegment, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeApp(data)
		if err != nil {
			return
		}
		var again []byte
		switch m.Kind {
		case KindSegment, KindRespSeg:
			if len(m.Seg.Data) > len(data) {
				t.Fatalf("segment data of %d bytes from %d input bytes", len(m.Seg.Data), len(data))
			}
			again = m.Seg.Encode(m.Kind)
		case KindSegAck, KindProbe:
			again = m.Ack.Encode(m.Kind)
		case KindRegister:
			again = EncodeRegister(m.Tag)
		case KindToService, KindInbound, KindServiceReply:
			again = m.Service.Encode()
		case KindCover:
			again = data // the padding is discarded, not returned
		default:
			t.Fatalf("decoded unknown kind %d", m.Kind)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("kind %d does not re-encode to its input", m.Kind)
		}
	})
}
