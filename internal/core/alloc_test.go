package core

import (
	"testing"
	"testing/quick"

	"resilientmix/internal/onion"
	"resilientmix/internal/session"
)

// allocSession builds a session whose slots stand except deadSlots —
// no world: allocation is the machine's and needs none.
func allocSession(t *testing.T, k, s int, weighted bool, deadSlots []int) *Session {
	t.Helper()
	params := Params{Protocol: SimEra, K: k, R: 2, SegmentsPerPath: s, Weighted: weighted}.withDefaults()
	if err := params.Validate(); err != nil {
		t.Fatal(err)
	}
	m, n := params.codeShape()
	sess := &Session{
		params: params,
		paths:  make([]*onion.Path, k),
		m:      session.New(session.Config{K: k, M: m, N: n}),
	}
	dead := make(map[int]bool)
	for _, d := range deadSlots {
		dead[d] = true
	}
	for i := 0; i < k; i++ {
		if !dead[i] {
			sess.m.PathUp(i, nil)
		}
	}
	return sess
}

// allocate is the session's allocation of n segments, as Send and the
// service API use it.
func (s *Session) allocate(n int) [][]int {
	assign := make([][]int, len(s.paths))
	s.m.Each(n, s.scores(), func(slot, idx int) { assign[slot] = append(assign[slot], idx) })
	return assign
}

// TestAllocationPartition checks the core invariant of both allocators:
// every segment index 0..n-1 appears exactly once across all slots.
func TestAllocationPartition(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for _, shape := range []struct{ k, s int }{{2, 1}, {4, 1}, {4, 3}, {8, 2}} {
			sess := allocSession(t, shape.k, shape.s, weighted, nil)
			n := shape.k * shape.s
			assign := sess.allocate(n)
			seen := make(map[int]int)
			for _, idxs := range assign {
				for _, i := range idxs {
					seen[i]++
				}
			}
			if len(seen) != n {
				t.Fatalf("weighted=%v k=%d s=%d: %d distinct segments assigned, want %d",
					weighted, shape.k, shape.s, len(seen), n)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("segment %d assigned %d times", i, c)
				}
			}
		}
	}
}

// TestEvenAllocationUniform checks the §4.7 even split: with all slots
// alive and n a multiple of k, every slot carries exactly s segments.
func TestEvenAllocationUniform(t *testing.T) {
	sess := allocSession(t, 4, 3, false, nil)
	assign := sess.allocate(12)
	for i, idxs := range assign {
		if len(idxs) != 3 {
			t.Fatalf("slot %d carries %d segments, want 3", i, len(idxs))
		}
	}
}

// TestWeightedAllocationSkipsDeadSlots verifies the weighted allocator
// assigns nothing to dead slots and everything to live ones.
func TestWeightedAllocationSkipsDeadSlots(t *testing.T) {
	sess := allocSession(t, 4, 2, true, []int{1, 3})
	assign := sess.allocate(8)
	if len(assign[1]) != 0 || len(assign[3]) != 0 {
		t.Fatalf("dead slots received segments: %v", assign)
	}
	total := len(assign[0]) + len(assign[2])
	if total != 8 {
		t.Fatalf("live slots carry %d segments, want all 8", total)
	}
}

// TestEvenAllocationRemainderRoundRobin checks the remainder path when
// n is not a multiple of k (permitted, though the paper excludes it).
func TestEvenAllocationRemainderRoundRobin(t *testing.T) {
	sess := allocSession(t, 4, 2, false, nil)
	assign := sess.allocate(7) // 1 each + 3 remainder
	counts := make([]int, 4)
	total := 0
	for i, idxs := range assign {
		counts[i] = len(idxs)
		total += len(idxs)
	}
	if total != 7 {
		t.Fatalf("assigned %d, want 7", total)
	}
	for _, c := range counts {
		if c < 1 || c > 2 {
			t.Fatalf("uneven remainder distribution: %v", counts)
		}
	}
}

// TestQuickAllocationInvariants is the property form over random shapes
// and random dead-slot patterns.
func TestQuickAllocationInvariants(t *testing.T) {
	f := func(deadMask uint8, weighted bool) bool {
		// Keep at least one slot alive (allocation over zero live slots
		// is legitimately empty for the weighted allocator).
		var dead []int
		for i := 1; i < 8; i++ {
			if deadMask&(1<<i) != 0 {
				dead = append(dead, i)
			}
		}
		sess := allocSession(t, 8, 2, weighted, dead)
		assign := sess.allocate(16)
		seen := make(map[int]bool)
		for slot, idxs := range assign {
			if weighted && !sess.m.SlotAlive(slot) && len(idxs) > 0 {
				return false // weighted must not target dead slots
			}
			for _, idx := range idxs {
				if idx < 0 || idx >= 16 || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return len(seen) == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
