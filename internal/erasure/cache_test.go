package erasure

import (
	"bytes"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

func TestNewReturnsSharedCode(t *testing.T) {
	a := mustCode(t, 4, 8)
	b := mustCode(t, 4, 8)
	if a != b {
		t.Fatal("New(4,8) twice returned distinct *Code; shape cache not shared")
	}
	c := mustCode(t, 4, 9)
	if a == c {
		t.Fatal("New(4,8) and New(4,9) returned the same *Code")
	}
}

func TestSplitSegmentsAppendSafe(t *testing.T) {
	// Segments share one backing buffer but are capacity-limited views:
	// appending to one must reallocate, never bleed into its neighbour.
	c := mustCode(t, 3, 6)
	msg := []byte("append-safety probe message")
	segs, err := c.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]byte, len(segs))
	for i, s := range segs {
		if cap(s.Data) != len(s.Data) {
			t.Fatalf("segment %d: cap %d > len %d, append would overwrite neighbour", i, cap(s.Data), len(s.Data))
		}
		snapshot[i] = append([]byte(nil), s.Data...)
	}
	for i := range segs {
		_ = append(segs[i].Data, 0xAA, 0xBB, 0xCC)
	}
	for i, s := range segs {
		if !bytes.Equal(s.Data, snapshot[i]) {
			t.Fatalf("segment %d corrupted by append to a sibling segment", i)
		}
	}
	got, err := c.Reconstruct(segs[3:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("reconstruction after appends diverged from original message")
	}
}

func TestSplitIntoReusesBuffer(t *testing.T) {
	c := mustCode(t, 4, 8)
	msg := make([]byte, 257)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	buf := make([]byte, c.N()*c.SegmentSize(len(msg)))
	segs, err := c.SplitInto(nil, msg, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &segs[0].Data[0] != &buf[0] {
		t.Fatal("SplitInto did not encode into the provided buffer")
	}
	got, err := c.Reconstruct(segs[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("reconstruction from reused-buffer encoding diverged")
	}

	// A second encode into the same buffer (now full of parity garbage)
	// must produce the same segments as a fresh one: the encode paths
	// overwrite rather than accumulate.
	msg2 := make([]byte, 123)
	for i := range msg2 {
		msg2[i] = byte(255 - i)
	}
	fresh, err := c.Split(msg2)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := c.SplitInto(nil, msg2, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if !bytes.Equal(fresh[i].Data, reused[i].Data) {
			t.Fatalf("segment %d differs between fresh and recycled buffers", i)
		}
	}
}

// TestReconstructIntoDirtyBuffer: a recycled dst full of another
// message's bytes decodes to exactly what Reconstruct returns, from
// every m-subset — the systematic copy and the non-systematic
// multiply-accumulate overwrite it rather than add to it.
func TestReconstructIntoDirtyBuffer(t *testing.T) {
	for _, shape := range [][2]int{{1, 2}, {2, 4}, {3, 6}, {4, 8}} {
		m, n := shape[0], shape[1]
		c := mustCode(t, m, n)
		msg := make([]byte, 301)
		for i := range msg {
			msg[i] = byte(i*13 + m)
		}
		segs, err := c.Split(msg)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, m*len(segs[0].Data))
		for set := 0; set < 1<<n; set++ {
			if bits.OnesCount(uint(set)) != m {
				continue
			}
			var pick []Segment
			for i := 0; i < n; i++ {
				if set&(1<<i) != 0 {
					pick = append(pick, segs[i])
				}
			}
			want, err := c.Reconstruct(pick)
			if err != nil {
				t.Fatal(err)
			}
			for i := range dst {
				dst[i] = 0xdb
			}
			got, err := c.ReconstructInto(dst, pick)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(got, msg) {
				t.Fatalf("(%d,%d) from segments %b: a dirty dst decoded differently", m, n, set)
			}
			if &got[0] != &dst[lenPrefix] {
				t.Fatalf("(%d,%d): ReconstructInto did not decode into dst", m, n)
			}
		}
	}
}

func TestDecodeCacheHitsMatchFreshInversion(t *testing.T) {
	// Every arrival order of the same row set must decode identically —
	// the sorted cache key means later orders hit the matrix cached by
	// the first.
	c := mustCode(t, 4, 10)
	msg := []byte("decode cache differential oracle")
	segs, err := c.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pick := []Segment{segs[1], segs[5], segs[7], segs[9]}
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
		got, err := c.Reconstruct(pick)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("trial %d: cached decode diverged from message", trial)
		}
	}
	c.decMu.Lock()
	entries := c.dec.len()
	c.decMu.Unlock()
	if entries != 1 {
		t.Fatalf("decode cache holds %d entries for one row set, want 1 (keys not canonical)", entries)
	}
}

func TestConcurrentReconstruct(t *testing.T) {
	// Shared *Code + shared decode cache under -race: many goroutines
	// reconstructing different row sets of the same message.
	c := mustCode(t, 5, 12)
	msg := make([]byte, 999)
	for i := range msg {
		msg[i] = byte(i)
	}
	segs, err := c.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 25; iter++ {
				perm := rng.Perm(c.N())
				pick := make([]Segment, c.M())
				for i := range pick {
					pick[i] = segs[perm[i]]
				}
				got, err := c.Reconstruct(pick)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, msg) {
					errs <- ErrSegmentMismatch
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLRUEviction(t *testing.T) {
	l := newLRU(2)
	l.put("a", 1)
	l.put("b", 2)
	if _, ok := l.get([]byte("a")); !ok {
		t.Fatal("a evicted prematurely")
	}
	l.put("c", 3) // "b" is now least-recently-used and must go
	if _, ok := l.get([]byte("b")); ok {
		t.Fatal("b not evicted at capacity")
	}
	if _, ok := l.get([]byte("a")); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if v, ok := l.get([]byte("c")); !ok || v.(int) != 3 {
		t.Fatal("c missing or wrong value")
	}
	if l.len() != 2 {
		t.Fatalf("len = %d, want 2", l.len())
	}
	l.put("c", 30) // overwrite in place
	if v, _ := l.get([]byte("c")); v.(int) != 30 {
		t.Fatal("put did not update existing key")
	}
	if l.len() != 2 {
		t.Fatalf("len after overwrite = %d, want 2", l.len())
	}
}
