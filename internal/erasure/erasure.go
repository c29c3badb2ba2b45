// Package erasure implements systematic Reed–Solomon erasure coding over
// GF(2^8), the "message redundancy" half of the paper's approach (§1.2,
// §4). A message M is split into n coded segments of length |M|/m such
// that any m of the n segments reconstruct M; the replication factor is
// r = n/m. Replication is the m = 1 special case (§4, "Replication can
// be thought of as a special case of erasure coding where m = 1").
//
// The code is systematic: the first m segments carry the message bytes
// verbatim (after length-prefixing and padding), so the common fast path
// — all segments from the lowest-indexed paths arrive — needs no matrix
// inversion at all.
package erasure

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"resilientmix/internal/gf256"
)

// MaxSegments is the largest supported number of coded segments, bounded
// by the number of distinct evaluation points in GF(2^8).
const MaxSegments = gf256.Order

// lenPrefix is the number of bytes prepended to the message to record
// its original length, so Reconstruct can strip padding.
const lenPrefix = 4

var (
	// ErrNotEnoughSegments is returned by Reconstruct when fewer than m
	// distinct segments are supplied.
	ErrNotEnoughSegments = errors.New("erasure: not enough segments to reconstruct")
	// ErrSegmentMismatch is returned when supplied segments have
	// inconsistent sizes or out-of-range indices.
	ErrSegmentMismatch = errors.New("erasure: inconsistent segments")
)

// Segment is one coded message segment. Index identifies which row of
// the coding matrix produced it; Reconstruct needs the index to rebuild
// the decoding matrix.
type Segment struct {
	Index int
	Data  []byte
}

// Code is a reusable (m, n) erasure code: n coded segments, any m of
// which suffice. The coding matrix is immutable after New; the decode
// cache behind Reconstruct is internally locked, so a Code is safe for
// concurrent use.
type Code struct {
	m, n   int
	matrix *gf256.Matrix // n x m systematic coding matrix

	// decMu guards dec, an LRU of inverted decoding matrices keyed by
	// the sorted row set chosen for reconstruction. Under churn the
	// same few row sets recur for every lost-segment pattern, and
	// re-inverting the matrix dominated non-systematic Reconstruct.
	decMu sync.Mutex
	dec   *lruCache
}

// decCacheCap bounds the per-Code cache of inverted decoding matrices.
// C(n, m) can be astronomical, but a session under churn sees only the
// handful of row sets its current path mix produces.
const decCacheCap = 32

// codeCacheCap bounds the package-level (m, n) -> *Code cache. Shapes
// arrive from wire headers in livenet, so the cache must not grow
// without bound under adversarial input.
const codeCacheCap = 64

var (
	codesMu sync.Mutex
	codes   = newLRU(codeCacheCap)
)

// New returns an (m, n) code. Requires 1 <= m <= n <= MaxSegments.
//
// Codes are cached: New returns the same *Code for the same (m, n),
// so the Vandermonde construction and systematic inversion run once
// per shape and the decoding-matrix cache persists across the
// per-message New calls on the receive path.
func New(m, n int) (*Code, error) {
	if m < 1 || n < m || n > MaxSegments {
		return nil, fmt.Errorf("erasure: invalid parameters m=%d n=%d (need 1 <= m <= n <= %d)", m, n, MaxSegments)
	}
	key := []byte{byte(m), byte(n - m)}
	codesMu.Lock()
	if c, ok := codes.get(key); ok {
		codesMu.Unlock()
		return c.(*Code), nil
	}
	codesMu.Unlock()

	// Build outside the lock: construction is O(n*m^2) and must not
	// serialize unrelated shapes.
	v := gf256.Vandermonde(n, m)
	top := v.SubMatrix(seq(m))
	topInv, err := top.Invert()
	if err != nil {
		// Cannot happen: the top m rows of a Vandermonde matrix with
		// distinct points are always invertible.
		return nil, fmt.Errorf("erasure: building systematic matrix: %w", err)
	}
	c := &Code{m: m, n: n, matrix: v.Mul(topInv), dec: newLRU(decCacheCap)}

	codesMu.Lock()
	defer codesMu.Unlock()
	if prev, ok := codes.get(key); ok {
		// Another goroutine built the same shape first; keep one so
		// its decode cache stays shared.
		return prev.(*Code), nil
	}
	codes.put(string(key), c)
	return c, nil
}

// NewReplication returns the replication code with factor r: r segments,
// any 1 of which reconstructs the message (m = 1, n = r).
func NewReplication(r int) (*Code, error) { return New(1, r) }

// M returns the number of segments required for reconstruction.
func (c *Code) M() int { return c.m }

// N returns the total number of coded segments produced by Split.
func (c *Code) N() int { return c.n }

// ReplicationFactor returns r = n/m as a float (n need not divide m
// evenly in general, though the paper always uses integral r).
func (c *Code) ReplicationFactor() float64 { return float64(c.n) / float64(c.m) }

// SegmentSize returns the size in bytes of each coded segment for a
// message of msgLen bytes: ceil((msgLen + 4) / m).
func (c *Code) SegmentSize(msgLen int) int {
	total := msgLen + lenPrefix
	return (total + c.m - 1) / c.m
}

// Split erasure-codes msg into n segments of equal length
// SegmentSize(len(msg)). The message is length-prefixed and zero-padded
// to a multiple of m before encoding.
//
// All n segments are disjoint, capacity-limited views into one backing
// buffer: writing a segment's bytes in place never affects another
// segment, and appending to one forces reallocation rather than
// silently overwriting its neighbour.
func (c *Code) Split(msg []byte) ([]Segment, error) {
	return c.SplitInto(nil, msg, nil)
}

// SplitInto is Split for hot loops that encode repeatedly: it appends
// the n segment descriptors to dst and lays the coded segments in buf,
// so a caller that recycles both — the previous round's descriptors and
// buffer — allocates nothing. buf needs N()*SegmentSize(len(msg)) bytes
// of capacity; when it is nil or too small a fresh buffer is allocated.
// Reusing buf invalidates the segments of the previous call that used
// it.
func (c *Code) SplitInto(dst []Segment, msg, buf []byte) ([]Segment, error) {
	if len(msg) > int(^uint32(0))-lenPrefix {
		return nil, errors.New("erasure: message too large")
	}
	shard := c.SegmentSize(len(msg))
	need := c.n * shard
	if cap(buf) < need {
		buf = make([]byte, need)
	} else {
		buf = buf[:need]
	}
	// The first m shards are the systematic data: length prefix,
	// message, zero padding.
	binary.BigEndian.PutUint32(buf, uint32(len(msg)))
	n := copy(buf[lenPrefix:c.m*shard], msg)
	tail := buf[lenPrefix+n : c.m*shard]
	for i := range tail {
		tail[i] = 0
	}

	if cap(dst)-len(dst) < c.n {
		dst = append(make([]Segment, 0, len(dst)+c.n), dst...)
	}
	for i := 0; i < c.n; i++ {
		out := buf[i*shard : (i+1)*shard : (i+1)*shard]
		if i >= c.m {
			// Parity rows: accumulate coef * data shard j. The data
			// shards and out are disjoint regions of buf; the j == 0
			// pass overwrites, so a recycled buffer needs no clearing.
			for j, coef := range c.matrix.Row(i) {
				if j == 0 {
					gf256.MulSlice(out, buf[:shard], coef)
				} else {
					gf256.MulAddSlice(out, buf[j*shard:(j+1)*shard], coef)
				}
			}
		}
		dst = append(dst, Segment{Index: i, Data: out})
	}
	return dst, nil
}

// Reconstruct rebuilds the original message from any m (or more)
// distinct segments produced by Split. Extra segments beyond m and
// duplicate indices are ignored.
func (c *Code) Reconstruct(segs []Segment) ([]byte, error) {
	return c.ReconstructInto(nil, segs)
}

// ReconstructInto is Reconstruct with a caller-provided buffer for the
// decoded message, for a caller that recycles it. dst needs M() times a
// segment's length of capacity; when it is nil or too small a fresh
// buffer is allocated, and that is all it allocates. Whatever dst held
// is overwritten, and the message returned lies in it.
func (c *Code) ReconstructInto(dst []byte, segs []Segment) ([]byte, error) {
	var chosenArr [MaxSegments]Segment
	chosen := chosenArr[:0]
	var seen [MaxSegments]bool
	shard := -1
	for _, s := range segs {
		if s.Index < 0 || s.Index >= c.n {
			return nil, fmt.Errorf("%w: segment index %d out of range [0,%d)", ErrSegmentMismatch, s.Index, c.n)
		}
		if seen[s.Index] {
			continue
		}
		if shard == -1 {
			shard = len(s.Data)
		} else if len(s.Data) != shard {
			return nil, fmt.Errorf("%w: segment sizes %d and %d differ", ErrSegmentMismatch, shard, len(s.Data))
		}
		seen[s.Index] = true
		chosen = append(chosen, s)
		if len(chosen) == c.m {
			break
		}
	}
	if len(chosen) < c.m {
		return nil, fmt.Errorf("%w: have %d distinct, need %d", ErrNotEnoughSegments, len(chosen), c.m)
	}

	// Sort the chosen segments by index. The decoded message is
	// independent of segment order (permuting rows of the system
	// permutes nothing in the solution), and a canonical order lets
	// every arrival order of the same row set share one cached
	// decoding matrix.
	sortByIndex(chosen)

	if cap(dst) < c.m*shard {
		dst = make([]byte, c.m*shard)
	}
	data := dst[:c.m*shard]
	if systematic(chosen, c.m) {
		// Fast path: segments 0..m-1 are the data shards verbatim.
		for _, s := range chosen {
			copy(data[s.Index*shard:], s.Data)
		}
	} else {
		dec, err := c.decodeMatrix(chosen)
		if err != nil {
			return nil, err
		}
		for i := 0; i < c.m; i++ {
			// The j == 0 term overwrites, as SplitInto's parity rows do, so
			// a recycled dst needs no clearing.
			out := data[i*shard : (i+1)*shard]
			for j, coef := range dec.Row(i) {
				if j == 0 {
					gf256.MulSlice(out, chosen[j].Data, coef)
				} else {
					gf256.MulAddSlice(out, chosen[j].Data, coef)
				}
			}
		}
	}

	if len(data) < lenPrefix {
		return nil, fmt.Errorf("%w: segments too small", ErrSegmentMismatch)
	}
	msgLen := binary.BigEndian.Uint32(data)
	if int(msgLen) > len(data)-lenPrefix {
		return nil, fmt.Errorf("%w: embedded length %d exceeds decoded data", ErrSegmentMismatch, msgLen)
	}
	return data[lenPrefix : lenPrefix+int(msgLen)], nil
}

// decodeMatrix returns the inverted decoding matrix for the chosen
// (index-sorted) segments, from the per-Code LRU when the same row set
// has been seen before. The returned matrix is shared and must be
// treated as read-only.
func (c *Code) decodeMatrix(chosen []Segment) (*gf256.Matrix, error) {
	var kb [MaxSegments]byte
	for i, s := range chosen {
		kb[i] = byte(s.Index)
	}
	key := kb[:len(chosen)]

	c.decMu.Lock()
	if dec, ok := c.dec.get(key); ok {
		c.decMu.Unlock()
		return dec.(*gf256.Matrix), nil
	}
	c.decMu.Unlock()

	// Invert outside the lock; inversion is O(m^3) and two goroutines
	// racing on the same key converge to identical matrices.
	rows := make([]int, len(chosen))
	for i, s := range chosen {
		rows[i] = s.Index
	}
	dec, err := c.matrix.SubMatrix(rows).Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: decoding matrix: %w", err)
	}
	c.decMu.Lock()
	c.dec.put(string(key), dec)
	c.decMu.Unlock()
	return dec, nil
}

// sortByIndex insertion-sorts segments by index; m is small enough
// that this beats sort.Slice and allocates nothing.
func sortByIndex(segs []Segment) {
	for i := 1; i < len(segs); i++ {
		s := segs[i]
		j := i - 1
		for j >= 0 && segs[j].Index > s.Index {
			segs[j+1] = segs[j]
			j--
		}
		segs[j+1] = s
	}
}

// systematic reports whether the chosen segments are exactly indices
// 0..m-1 (in any order).
func systematic(segs []Segment, m int) bool {
	for _, s := range segs {
		if s.Index >= m {
			return false
		}
	}
	return true
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
