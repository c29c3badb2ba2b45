package sessiontest

import (
	"bytes"
	"fmt"

	"resilientmix/internal/erasure"
	"resilientmix/internal/session"
)

// ReassemblyCase is one arrival sequence at a responder and what must
// come of it, whichever driver's entry point takes the segments in.
type ReassemblyCase struct {
	Name     string
	Segments []session.Segment
	// Verdicts is what the reassembler says to each segment in turn.
	Verdicts []session.Verdict
	// Payload is the message that must be delivered exactly once; nil
	// when nothing may be delivered.
	Payload []byte
}

// Check reports whether what a driver delivered for the case is right:
// the payload exactly once, or nothing.
func (tc ReassemblyCase) Check(delivered [][]byte) error {
	switch {
	case tc.Payload == nil && len(delivered) != 0:
		return fmt.Errorf("delivered %d messages, want none", len(delivered))
	case tc.Payload != nil && (len(delivered) != 1 || !bytes.Equal(delivered[0], tc.Payload)):
		return fmt.Errorf("delivered %q, want the payload once", delivered)
	}
	return nil
}

// ReassemblyCases returns the table: the reassembler's own test runs
// it, and so do core.Receiver's and livenet.LiveCollector's.
func ReassemblyCases() []ReassemblyCase {
	payload := []byte("any m of the n coded segments rebuild the message")
	coded := func(mid uint64, m, n int) []session.Segment {
		code, err := erasure.New(m, n)
		if err != nil {
			panic(err)
		}
		parts, err := code.Split(payload)
		if err != nil {
			panic(err)
		}
		segs := make([]session.Segment, n)
		for i, p := range parts {
			segs[i] = session.Segment{MID: mid, Index: int32(i), Total: int32(n), Needed: int32(m), Data: p.Data}
		}
		return segs
	}
	a, b, c, d, e := coded(1, 2, 4), coded(2, 2, 4), coded(3, 2, 4), coded(4, 2, 4), coded(5, 2, 4)
	other := coded(3, 1, 2) // message 3 again, under a different shape
	bad := func(s session.Segment, index, total, needed int32) session.Segment {
		s.Index, s.Total, s.Needed = index, total, needed
		return s
	}
	long := e[1]
	long.Data = append(bytes.Clone(long.Data), 0) // message 5's segment 1, a byte too long
	return []ReassemblyCase{{
		Name:     "any m of n, later segments are late",
		Segments: []session.Segment{a[3], a[1], a[0]},
		Verdicts: []session.Verdict{session.Stored, session.Ready, session.Late},
		Payload:  payload,
	}, {
		Name:     "a repeated index does not count towards m",
		Segments: []session.Segment{b[0], b[0], b[2]},
		Verdicts: []session.Verdict{session.Stored, session.Duplicate, session.Ready},
		Payload:  payload,
	}, {
		// The old LiveCollector marked message 3 done on the second
		// segment, failed to decode, and acked the third as a duplicate.
		Name:     "a segment of another shape is rejected and poisons nothing",
		Segments: []session.Segment{c[0], other[1], c[1]},
		Verdicts: []session.Verdict{session.Stored, session.Rejected, session.Ready},
		Payload:  payload,
	}, {
		// A reassembler that stored it would have a collector size the
		// rebuilt message by it before the decoder saw the mismatch.
		Name:     "a segment of another length is rejected and poisons nothing",
		Segments: []session.Segment{e[0], long, e[1]},
		Verdicts: []session.Verdict{session.Stored, session.Rejected, session.Ready},
		Payload:  payload,
	}, {
		Name:     "impossible shapes are rejected",
		Segments: []session.Segment{bad(d[0], 0, 4, 0), bad(d[1], 4, 4, 2), bad(d[2], 0, 2, 3), bad(d[3], 0, 300, 2)},
		Verdicts: []session.Verdict{session.Rejected, session.Rejected, session.Rejected, session.Rejected},
	}}
}
