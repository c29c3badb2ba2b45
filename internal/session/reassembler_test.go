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
				v := r.Add(int64(i), seg, nil)
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
	r.Add(0, segs[0], nil)
	r.Sweep(99)
	if r.Len() != 1 {
		t.Fatal("partial message swept inside its horizon")
	}
	if r.Add(99, segs[1], nil) != session.Ready {
		t.Fatal("second segment inside the horizon did not complete the message")
	}
	if _, n, first, ok := r.Reconstruct(segs[0].MID); !ok || n != 2 || first != 0 {
		t.Fatalf("reconstruct: %d segments, first at %d, ok=%v", n, first, ok)
	}
	if _, _, done, ok := r.Shape(segs[0].MID); !ok || !done {
		t.Fatal("reconstructed message not remembered as done")
	}
	r.Sweep(198)
	if r.Add(198, segs[2], nil) != session.Late {
		t.Fatal("segment of a done message inside the horizon was not late")
	}
	r.Sweep(298)
	if r.Len() != 0 {
		t.Fatalf("%d messages remembered a horizon after the last arrival", r.Len())
	}
	if r.Add(300, segs[0], nil) != session.Stored {
		t.Fatal("a forgotten ID does not start afresh")
	}
}

// TestReassemblerGivesBuffersBack is the buffer ownership rule, verdict
// by verdict: the handle a segment arrives with comes back from the
// reassembler exactly once — from Reconstruct or from Sweep, whichever
// ends the message — when its segment was Stored or Ready, and never
// when it was Rejected, Duplicate or Late, which leave it the caller's.
func TestReassemblerGivesBuffersBack(t *testing.T) {
	a := sessiontest.ReassemblyCases()[0].Segments // three of one message's 2-of-4
	outOfRange := a[0]
	outOfRange.Index = outOfRange.Total
	for _, tc := range []struct {
		name    string
		before  []session.Segment
		seg     session.Segment
		verdict session.Verdict
	}{
		{"rejected", nil, outOfRange, session.Rejected},
		{"stored", nil, a[0], session.Stored},
		{"ready", []session.Segment{a[0]}, a[1], session.Ready},
		{"duplicate", []session.Segment{a[0]}, a[0], session.Duplicate},
		{"late", []session.Segment{a[0], a[1]}, a[2], session.Late},
	} {
		for _, end := range []string{"reconstruct", "sweep"} {
			t.Run(tc.name+"/"+end, func(t *testing.T) {
				const horizon = 100
				r := session.NewReassembler(horizon)
				back := make(map[*[]byte]int)
				session.SetRelease(r, func(bp *[]byte) { back[bp]++ })
				var kept []*[]byte // the handles of segments r stored
				add := func(now int64, seg session.Segment) (*[]byte, session.Verdict) {
					bp := new([]byte)
					v := r.Add(now, seg, bp)
					if v == session.Stored || v == session.Ready {
						kept = append(kept, bp)
					}
					return bp, v
				}
				for _, seg := range tc.before {
					if _, v := add(0, seg); v == session.Ready {
						if _, _, _, ok := r.Reconstruct(seg.MID); !ok {
							t.Fatal("setup: the message did not rebuild")
						}
					}
				}
				x, v := add(1, tc.seg)
				if v != tc.verdict {
					t.Fatalf("verdict %d, want %d", v, tc.verdict)
				}
				if back[x] != 0 {
					t.Fatal("the handle came back inside Add")
				}
				if end == "reconstruct" {
					if _, _, done, _ := r.Shape(a[0].MID); !done {
						add(2, a[2]) // complete the message if it is not
						r.Reconstruct(a[0].MID)
					}
				} else {
					r.Sweep(2 + horizon)
				}
				stored := tc.verdict == session.Stored || tc.verdict == session.Ready
				if want := map[bool]int{true: 1, false: 0}[stored]; back[x] != want {
					t.Fatalf("the %s segment's handle came back %d times by the %s, want %d", tc.name, back[x], end, want)
				}
				r.Sweep(3 + horizon)
				for i, bp := range kept {
					if back[bp] != 1 {
						t.Fatalf("stored handle %d came back %d times by the final sweep, want 1", i, back[bp])
					}
				}
				if len(back) != len(kept) {
					t.Fatalf("%d handles came back, %d were stored", len(back), len(kept))
				}
			})
		}
	}
}

// FuzzReassembler feeds arbitrary segment sequences — few IDs, small
// shapes, so that collisions, disagreements and completions all
// happen — and requires: no panic, no message delivered twice, every
// delivery from at least m segments of one shape, and decoded into a
// recycled buffer still full of earlier bytes exactly what a fresh
// decode of the segments the message held gives. And the buffer
// ownership rule: every handle given to Add comes back exactly once —
// from the caller on Rejected, Duplicate or Late, from the reassembler,
// inside Reconstruct or Sweep and nowhere else, on Stored or Ready —
// and none is left after a sweep past the horizon.
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
		const horizon = 16
		r := session.NewReassembler(horizon)
		back := make(map[*[]byte]int) // by handle, how often it came back
		var given []*[]byte           // every handle given to Add
		giving := false               // inside Reconstruct or Sweep
		session.SetRelease(r, func(bp *[]byte) {
			if !giving {
				t.Fatal("the reassembler released a handle outside Reconstruct and Sweep")
			}
			back[bp]++
		})
		delivered := make(map[uint64]bool)
		held := make(map[uint64][]erasure.Segment) // what r stores, as r stores it
		kept := make(map[uint64][]*[]byte)         // the handles of what r stores
		dst := bytes.Repeat([]byte{0xdb}, 4096)    // past the largest message: 127 segments of 19 bytes
		now := int64(0)
		for ; len(script) >= 5; now, script = now+1, script[5:] {
			seg := session.Segment{
				MID:   uint64(script[0] % 4),
				Index: int32(int8(script[1])), Total: int32(int8(script[2])), Needed: int32(int8(script[3])),
				Data: binary.BigEndian.AppendUint32(make([]byte, script[4]%16), uint32(script[4])),
			}
			if now%7 == 6 {
				giving = true
				r.Sweep(now)
				giving = false
				for mid := range held {
					if _, _, _, ok := r.Shape(mid); !ok {
						delete(delivered, mid) // forgotten: the ID may be used again
						delete(held, mid)
						delete(kept, mid)
					}
				}
			}
			var bp *[]byte
			if script[4] < 0xf0 { // the rest arrive in no pooled buffer
				bp = new([]byte)
				given = append(given, bp)
			}
			v := r.Add(now, seg, bp)
			if v == session.Stored || v == session.Ready {
				held[seg.MID] = append(held[seg.MID], erasure.Segment{Index: int(seg.Index), Data: seg.Data})
				if bp != nil {
					kept[seg.MID] = append(kept[seg.MID], bp)
				}
			} else if bp != nil {
				back[bp]++ // the caller's to release
			}
			if v != session.Ready {
				continue
			}
			giving = true
			data, n, _, ok := r.ReconstructInto(seg.MID, dst)
			giving = false
			for _, h := range kept[seg.MID] {
				if want := map[bool]int{true: 1, false: 0}[ok]; back[h] != want {
					t.Fatalf("message %d (rebuilt %v): a stored segment's handle came back %d times", seg.MID, ok, back[h])
				}
			}
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
			held[seg.MID], kept[seg.MID] = nil, nil
		}
		giving = true
		r.Sweep(now + horizon)
		giving = false
		if r.Len() != 0 {
			t.Fatalf("%d messages remembered past the horizon", r.Len())
		}
		for i, bp := range given {
			if back[bp] != 1 {
				t.Fatalf("handle %d of %d came back %d times", i, len(given), back[bp])
			}
		}
	})
}
