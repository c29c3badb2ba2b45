package session

// SetRelease replaces how r gives a buffer back to the pool, so that a
// test can count what comes back.
func SetRelease[H any](r *Reassembler[H], release func(bp *[]byte)) { r.release = release }
