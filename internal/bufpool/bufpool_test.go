package bufpool

import (
	"bytes"
	"testing"
)

// TestReleasePoisons pins the test seam the buffer lifetime tests rest
// on: with poisoning on, a released buffer reads as 0xdb throughout,
// and Release(nil), a buffer that is not pooled, is nothing. (The size
// classes are pinned against the frames drawn from them, by
// internal/livenet's TestReadBufClasses.)
func TestReleasePoisons(t *testing.T) {
	SetPoison(true)
	t.Cleanup(func() { SetPoison(false) })
	bp := Get(300)
	b := *bp
	copy(b, "still in use")
	Release(bp)
	if !bytes.Equal(b, bytes.Repeat([]byte{0xdb}, len(b))) {
		t.Fatal("a released buffer was not poisoned")
	}
	Release(nil)
}
