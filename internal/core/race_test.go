//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop a quarter of what
// is put into it, so allocation counts that go through a pool (onion's
// packets) mean nothing under it.
const raceEnabled = true
