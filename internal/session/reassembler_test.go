package session_test

import (
	"bytes"
	"encoding/binary"
	"slices"
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
			r := session.NewReassembler[struct{}](1000)
			var delivered [][]byte
			for i, seg := range tc.Segments {
				v := add(r, int64(i), seg)
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
	r := session.NewReassembler[struct{}](100)
	add(r, 0, segs[0])
	r.Sweep(99)
	if r.Len() != 1 {
		t.Fatal("partial message swept inside its horizon")
	}
	if add(r, 99, segs[1]) != session.Ready {
		t.Fatal("second segment inside the horizon did not complete the message")
	}
	if _, n, first, ok := r.Reconstruct(segs[0].MID); !ok || n != 2 || first != 0 {
		t.Fatalf("reconstruct: %d segments, first at %d, ok=%v", n, first, ok)
	}
	if _, _, done, _, ok := r.Shape(segs[0].MID); !ok || !done {
		t.Fatal("reconstructed message not remembered as done")
	}
	r.Sweep(198)
	if add(r, 198, segs[2]) != session.Late {
		t.Fatal("segment of a done message inside the horizon was not late")
	}
	r.Sweep(298)
	if r.Len() != 0 {
		t.Fatalf("%d messages remembered a horizon after the last arrival", r.Len())
	}
	if add(r, 300, segs[0]) != session.Stored {
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
				r := session.NewReassembler[struct{}](horizon)
				back := make(map[*[]byte]int)
				session.SetRelease(r, func(bp *[]byte) { back[bp]++ })
				var kept []*[]byte // the handles of segments r stored
				add := func(now int64, seg session.Segment) (*[]byte, session.Verdict) {
					bp := new([]byte)
					v, _ := r.Add(now, seg, bp)
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
					if _, _, done, _, _ := r.Shape(a[0].MID); !done {
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

// add is Add for a segment in no pooled buffer, by a caller that keeps
// nothing per message.
func add(r *session.Reassembler[struct{}], now int64, seg session.Segment) session.Verdict {
	v, _ := r.Add(now, seg, nil)
	return v
}

// TestReassemblerSteadyStateAllocs: once its records, lists and map
// have grown to the number of messages remembered at once, the
// reassembler takes in, rebuilds and forgets messages without
// allocating — a forgotten message's record, lists and list of H go to
// the next new one.
func TestReassemblerSteadyStateAllocs(t *testing.T) {
	const horizon = 8
	code, err := erasure.New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := code.Split([]byte("one message among many"))
	if err != nil {
		t.Fatal(err)
	}
	r := session.NewReassembler[uint64](horizon)
	dst := make([]byte, 2*len(parts[0].Data))
	var now int64
	var mid uint64
	rebuilt := 0
	cycle := func() {
		now++
		mid++
		for _, i := range []int{3, 0, 1} { // the third is late
			seg := session.Segment{MID: mid, Index: int32(i), Total: 4, Needed: 2, Data: parts[i].Data}
			v, replies := r.Add(now, seg, nil)
			*replies = append(*replies, mid)
			if v == session.Ready {
				if _, _, _, ok := r.ReconstructInto(mid, dst); ok {
					rebuilt++
				}
			}
		}
		r.Sweep(now)
	}
	for i := 0; i < 4*horizon; i++ {
		cycle()
	}
	const runs = 1000
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 || rebuilt != runs+1+4*horizon {
		t.Fatalf("%v allocations a message, %d of %d rebuilt; want 0 and all", allocs, rebuilt, runs+1+4*horizon)
	}
	if r.Len() > horizon {
		t.Fatalf("%d messages remembered, horizon %d", r.Len(), horizon)
	}
}

// FuzzReassembler feeds arbitrary segment sequences — few IDs, small
// shapes, so that collisions, disagreements and completions all
// happen, with sweeps and jumps of the clock past the horizon, and
// fresh IDs arriving into the records forgotten ones left — and checks
// every verdict against a model of what the reassembler holds: a new
// message ID never reads as Duplicate or Late, rejected or sized by an
// earlier message's segments, and its list of H starts empty and holds
// what was added for it alone. A delivery decoded into a recycled buffer
// still full of earlier bytes is exactly what a fresh decode of the
// segments the message held gives. And the buffer ownership rule: every
// handle given to Add comes back exactly once — from the caller on
// Rejected, Duplicate or Late, from the reassembler, inside Reconstruct
// or Sweep and nowhere else, on Stored or Ready — and none is left after
// a sweep past the horizon.
//
// One step is six bytes: control, ID, index, total, needed, length.
// The control byte's low three bits move the clock on by 0–21 units
// (the horizon is 16); 0x08 sweeps before the segment arrives; 0x10
// moves on to four fresh IDs; 0x20 sends the segment in no pooled
// buffer.
func FuzzReassembler(f *testing.F) {
	for _, tc := range sessiontest.ReassemblyCases() {
		var script []byte
		for _, s := range tc.Segments {
			script = append(script, 1, byte(s.MID), byte(s.Index), byte(s.Total), byte(s.Needed), byte(len(s.Data)))
		}
		f.Add(script)
	}
	f.Add([]byte{1, 1, 0, 2, 1, 8, 1, 1, 0, 2, 1, 8, 1, 1, 1, 2, 1, 8})
	f.Add([]byte{1, 2, 3, 4, 2, 9, 1, 2, 2, 4, 2, 9}) // parity only: the multiply-accumulate path
	// A message rebuilt, swept, and a fresh ID in its record.
	f.Add([]byte{1, 0, 0, 4, 2, 8, 1, 0, 1, 4, 2, 8, 0x1f, 0, 0, 4, 2, 8, 1, 0, 1, 4, 2, 8})
	// A partial message swept, a fresh ID of another length in its record.
	f.Add([]byte{1, 0, 0, 4, 2, 8, 0x1f, 0, 2, 4, 2, 11, 1, 0, 0, 4, 2, 11, 0x2f, 0, 0, 4, 2, 3})
	type model struct {
		needed, total int32
		held          []erasure.Segment // what r stores, as r stores it
		kept          []*[]byte         // the handles of what r stores
		done          bool
		expires       int64
		replies       int
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		const horizon = 16
		r := session.NewReassembler[uint64](horizon) // each message's list holds its own ID
		back := make(map[*[]byte]int)                // by handle, how often it came back
		var given []*[]byte                          // every handle given to Add
		giving := false                              // inside Reconstruct or Sweep
		session.SetRelease(r, func(bp *[]byte) {
			if !giving {
				t.Fatal("the reassembler released a handle outside Reconstruct and Sweep")
			}
			back[bp]++
		})
		msgs := make(map[uint64]*model)
		sweep := func(now int64) {
			giving = true
			r.Sweep(now)
			giving = false
			for mid, m := range msgs {
				if m.expires > now {
					continue
				}
				for _, bp := range m.kept {
					if back[bp] != 1 {
						t.Fatalf("message %d swept: a stored segment's handle came back %d times", mid, back[bp])
					}
				}
				delete(msgs, mid)
			}
			if r.Len() != len(msgs) {
				t.Fatalf("after a sweep at %d: %d messages remembered, want %d", now, r.Len(), len(msgs))
			}
		}
		dst := bytes.Repeat([]byte{0xdb}, 4096) // past the largest message: 127 segments of 19 bytes
		var now int64
		var epoch uint64
		for ; len(script) >= 6; script = script[6:] {
			ctl := script[0]
			now += int64(ctl&7) * 3
			if ctl&0x10 != 0 {
				epoch++
			}
			if ctl&0x08 != 0 {
				sweep(now)
			}
			seg := session.Segment{
				MID:   epoch<<2 | uint64(script[1]&3),
				Index: int32(int8(script[2])), Total: int32(int8(script[3])), Needed: int32(int8(script[4])),
				Data: binary.BigEndian.AppendUint32(make([]byte, script[5]%16), uint32(script[5])),
			}
			var bp *[]byte
			if ctl&0x20 == 0 {
				bp = new([]byte)
				given = append(given, bp)
			}

			// What the model says of the segment.
			want, m := session.Rejected, msgs[seg.MID]
			if session.ValidCodeShape(seg.Needed, seg.Total) && seg.Index >= 0 && seg.Index < seg.Total {
				if m == nil {
					m = &model{needed: seg.Needed, total: seg.Total}
					msgs[seg.MID] = m
				}
				m.expires = now + horizon
				switch {
				case m.needed != seg.Needed || m.total != seg.Total:
				case m.done:
					want = session.Late
				case slices.ContainsFunc(m.held, func(s erasure.Segment) bool { return s.Index == int(seg.Index) }):
					want = session.Duplicate
				case len(m.held) > 0 && len(seg.Data) != len(m.held[0].Data):
				case len(m.held)+1 >= int(m.needed):
					want = session.Ready
				default:
					want = session.Stored
				}
			}

			v, replies := r.Add(now, seg, bp)
			if v != want {
				t.Fatalf("message %d at %d: segment %d verdict %d, want %d", seg.MID, now, seg.Index, v, want)
			}
			if v == session.Rejected {
				if replies != nil {
					t.Fatal("a rejected segment came with its message's list")
				}
			} else {
				if len(*replies) != m.replies || slices.ContainsFunc(*replies, func(id uint64) bool { return id != seg.MID }) {
					t.Fatalf("message %d's list is %v, want %d entries of its own", seg.MID, *replies, m.replies)
				}
				*replies = append(*replies, seg.MID)
				m.replies++
			}
			if v == session.Stored || v == session.Ready {
				m.held = append(m.held, erasure.Segment{Index: int(seg.Index), Data: seg.Data})
				if bp != nil {
					m.kept = append(m.kept, bp)
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
			for _, h := range m.kept {
				if want := map[bool]int{true: 1, false: 0}[ok]; back[h] != want {
					t.Fatalf("message %d (rebuilt %v): a stored segment's handle came back %d times", seg.MID, ok, back[h])
				}
			}
			if !ok {
				continue
			}
			needed, total, done, _, _ := r.Shape(seg.MID)
			if !done || n != len(m.held) || n < int(needed) {
				t.Fatalf("message %d delivered from %d of %d segments, %d held (done=%v)", seg.MID, n, needed, len(m.held), done)
			}
			code, err := erasure.New(int(needed), int(total))
			if err != nil {
				t.Fatal(err)
			}
			if want, err := code.Reconstruct(m.held); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("message %d decoded into a dirty buffer as %x, fresh as %x (%v)", seg.MID, data, want, err)
			}
			m.done, m.held, m.kept = true, nil, nil
		}
		sweep(now + horizon)
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
