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

// pools holds one sync.Pool per size class. Recycling by size keeps a
// 100-byte reverse frame from taking — and, ending at an initiator,
// from taking out of circulation — the buffer of a 128 KB data frame
// read on the same accept loop. A sync.Pool and not a free list: the
// simulator's worlds run on parallel goroutines, and livenet's
// handlers are concurrent.
var pools [MaxClass + 1]sync.Pool

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
// allocation, which Release drops.
func Get(size int) *[]byte {
	grain := max(64, 1<<bits.Len(uint(size))>>5)
	size = max(grain, (size+grain-1)&^(grain-1))
	class := bits.Len(uint(size)) - 1
	if class > MaxClass {
		b := make([]byte, size)
		return &b
	}
	bp, _ := pools[class].Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < size {
		*bp = make([]byte, size)
	}
	return bp
}

// Release gives back a buffer Get handed out. Only its owner may, and
// only once nothing holds a piece of it. Release(nil) does nothing: a
// nil handle is a buffer that is not pooled.
func Release(bp *[]byte) {
	if bp == nil {
		return
	}
	if poison.Load() {
		for i := range *bp {
			(*bp)[i] = 0xdb
		}
	}
	if class := bits.Len(uint(len(*bp))) - 1; class <= MaxClass {
		pools[class].Put(bp)
	}
}
