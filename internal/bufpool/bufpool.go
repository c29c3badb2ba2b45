// Package bufpool is the one pool of payload-sized buffers that both
// drivers of the protocol draw from: internal/livenet's frames, coded
// segments and rebuilt messages, the simulator's payload onions, acks
// and rebuilt messages (internal/onion, internal/core), and the
// buffers the session reassembler (internal/session) holds segments in
// until their message is rebuilt or forgotten.
//
// A buffer is handed out and given back by its handle, the *[]byte Get
// returns. The rule that keeps a recycled buffer safe is ownership: a
// handle has one owner at a time, and only the owner of a buffer
// nothing holds a piece of any more may Release it — once. Whoever
// hands a handle on, with the bytes that lie in it, hands on the duty
// to release it; a handle nobody releases is garbage, never an error.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// MaxClass is the largest size class: class c holds buffers of 1<<c up
// to 2<<c bytes, so the pool serves sizes below 2<<MaxClass (2 MB).
const MaxClass = 20

// pools holds one free list per size Get rounds to: the power-of-two
// class, then which of its (at most 16) sizes. Recycling by size keeps
// a 100-byte reverse frame from taking — and, ending at an initiator,
// from taking out of circulation — the buffer of a 128 KB data frame
// read on the same accept loop, and a 192-byte frame from finding only
// 128-byte buffers: with one list per class, live_bulk's shape made
// four fresh 192-byte buffers a message while the 128-byte ones piled
// up. A list under a lock, because the simulator's worlds run on
// parallel goroutines and livenet's handlers are concurrent, and not a
// sync.Pool: a sync.Pool keeps the last buffer each P put in a slot
// only that P's Get looks at, and the collector empties it, so a
// buffer given back was often not there for the next Get — on two Ps,
// two to four 128–512 KB frame buffers per 100 of live_bulk's messages
// (27–38 KB a message, against 27.1 KB on one P). A list keeps what it
// is given back for the life of the process: at most as many buffers
// as were ever out of it at once.
var pools [MaxClass + 1][16]pool

// pool is one size's free buffers, a stack: the last given back is the
// next handed out, while it is warm in the cache.
type pool struct {
	mu   sync.Mutex
	free []*[]byte
}

// rounded returns the size Get hands out for size bytes — a multiple of
// the grain, a sixteenth of its power of two or 64 bytes — and its
// pool.
func rounded(size int) (int, *pool) {
	grain := max(6, bits.Len(uint(size))-5) // its log
	size = max(1<<grain, (size+1<<grain-1)>>grain<<grain)
	class := bits.Len(uint(size)) - 1
	if class > MaxClass {
		return size, nil
	}
	grain = max(6, class-4) // the class's, which divides size
	return size, &pools[class][size>>grain-1<<(class-grain)]
}

// poison makes Release overwrite a buffer before pooling it: a test
// seam that turns any use of a buffer after its release into wrong
// bytes.
var poison atomic.Bool

// SetPoison turns release poisoning on or off. It is a test seam for
// lifetime bugs; a test that sets it restores it when done, and tests
// that run concurrently share it.
func SetPoison(on bool) { poison.Store(on) }

// Get returns a buffer of at least size bytes, its length its
// capacity. Sizes are rounded up, by at most a sixteenth, so that
// buffers a layer apart in size — the frames of one path from hop to
// hop — fit each other's. A size past every class is a plain
// allocation, which Release drops; so is one whose class has no buffer
// that fits.
func Get(size int) *[]byte {
	size, p := rounded(size)
	if p != nil {
		p.mu.Lock()
		if n := len(p.free); n > 0 {
			bp := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			p.mu.Unlock()
			return bp
		}
		p.mu.Unlock()
	}
	b := make([]byte, size)
	return &b
}

// Release gives back a buffer Get handed out. Only its owner may, and
// only once nothing holds a piece of it. Release(nil) does nothing: a
// nil handle is a buffer that is not pooled. Nor is one of a length
// Get does not hand out.
func Release(bp *[]byte) {
	if bp == nil {
		return
	}
	if poison.Load() {
		for i := range *bp {
			(*bp)[i] = 0xdb
		}
	}
	if size, p := rounded(len(*bp)); p != nil && size == len(*bp) {
		p.mu.Lock()
		p.free = append(p.free, bp)
		p.mu.Unlock()
	}
}
