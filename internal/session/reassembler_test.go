package session_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"resilientmix/internal/erasure"
	"resilientmix/internal/session"
	"resilientmix/internal/sessiontest"
)

// TestReassemblerCases runs the shared arrival-sequence table on the
// reassembler itself; core.Receiver and livenet.LiveCollector run the
// same table through their entry points.
func TestReassemblerCases(t *testing.T) {
	for _, tc := range sessiontest.ReassemblyCases() {
		t.Run(tc.Name, func(t *testing.T) {
			r := session.NewReassembler(1000)
			var delivered [][]byte
			for i, seg := range tc.Segments {
				v := r.Add(int64(i), seg)
				if v != tc.Verdicts[i] {
					t.Fatalf("segment %d: verdict %d, want %d", i, v, tc.Verdicts[i])
				}
				if v == session.Ready {
					if data, _, _, ok := r.Reconstruct(seg.MID); ok {
						delivered = append(delivered, data)
					}
				}
			}
			if err := tc.Check(delivered); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReassemblerExpiry pins the memory bound: every arrival pushes a
// message's expiry one horizon out, Sweep forgets what has passed it —
// done messages (kept so duplicates read as late) as well as partial
// ones — and a swept ID starts afresh.
func TestReassemblerExpiry(t *testing.T) {
	segs := sessiontest.ReassemblyCases()[0].Segments // one message, 2-of-4
	r := session.NewReassembler(100)
	r.Add(0, segs[0])
	r.Sweep(99)
	if r.Len() != 1 {
		t.Fatal("partial message swept inside its horizon")
	}
	if r.Add(99, segs[1]) != session.Ready {
		t.Fatal("second segment inside the horizon did not complete the message")
	}
	if _, n, first, ok := r.Reconstruct(segs[0].MID); !ok || n != 2 || first != 0 {
		t.Fatalf("reconstruct: %d segments, first at %d, ok=%v", n, first, ok)
	}
	if _, _, done, ok := r.Shape(segs[0].MID); !ok || !done {
		t.Fatal("reconstructed message not remembered as done")
	}
	r.Sweep(198)
	if r.Add(198, segs[2]) != session.Late {
		t.Fatal("segment of a done message inside the horizon was not late")
	}
	r.Sweep(298)
	if r.Len() != 0 {
		t.Fatalf("%d messages remembered a horizon after the last arrival", r.Len())
	}
	if r.Add(300, segs[0]) != session.Stored {
		t.Fatal("a forgotten ID does not start afresh")
	}
}

// FuzzReassembler feeds arbitrary segment sequences — few IDs, small
// shapes, so that collisions, disagreements and completions all
// happen — and requires: no panic, no message delivered twice, every
// delivery from at least m segments of one shape, and decoded into a
// recycled buffer still full of earlier bytes exactly what a fresh
// decode of the segments the message held gives.
func FuzzReassembler(f *testing.F) {
	for _, tc := range sessiontest.ReassemblyCases() {
		var script []byte
		for _, s := range tc.Segments {
			script = append(script, byte(s.MID), byte(s.Index), byte(s.Total), byte(s.Needed), byte(len(s.Data)))
		}
		f.Add(script)
	}
	f.Add([]byte{1, 0, 2, 1, 8, 1, 0, 2, 1, 8, 1, 1, 2, 1, 8})
	f.Add([]byte{2, 3, 4, 2, 9, 2, 2, 4, 2, 9}) // parity only: the multiply-accumulate path
	f.Fuzz(func(t *testing.T, script []byte) {
		r := session.NewReassembler(16)
		delivered := make(map[uint64]bool)
		held := make(map[uint64][]erasure.Segment) // what r stores, as r stores it
		dst := bytes.Repeat([]byte{0xdb}, 4096)    // past the largest message: 127 segments of 19 bytes
		for now := int64(0); len(script) >= 5; now, script = now+1, script[5:] {
			seg := session.Segment{
				MID:   uint64(script[0] % 4),
				Index: int32(int8(script[1])), Total: int32(int8(script[2])), Needed: int32(int8(script[3])),
				Data: binary.BigEndian.AppendUint32(make([]byte, script[4]%16), uint32(script[4])),
			}
			if now%7 == 6 {
				r.Sweep(now)
				for mid := range held {
					if _, _, _, ok := r.Shape(mid); !ok {
						delete(delivered, mid) // forgotten: the ID may be used again
						delete(held, mid)
					}
				}
			}
			v := r.Add(now, seg)
			if v == session.Stored || v == session.Ready {
				held[seg.MID] = append(held[seg.MID], erasure.Segment{Index: int(seg.Index), Data: seg.Data})
			}
			if v != session.Ready {
				continue
			}
			data, n, _, ok := r.ReconstructInto(seg.MID, dst)
			if !ok {
				continue
			}
			if delivered[seg.MID] {
				t.Fatalf("message %d delivered twice", seg.MID)
			}
			needed, total, done, _ := r.Shape(seg.MID)
			if !done || n < int(needed) {
				t.Fatalf("message %d delivered from %d of %d segments (done=%v)", seg.MID, n, needed, done)
			}
			code, err := erasure.New(int(needed), int(total))
			if err != nil {
				t.Fatal(err)
			}
			if want, err := code.Reconstruct(held[seg.MID]); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("message %d decoded into a dirty buffer as %x, fresh as %x (%v)", seg.MID, data, want, err)
			}
			delivered[seg.MID] = true
			held[seg.MID] = nil
		}
	})
}
