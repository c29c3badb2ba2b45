package livenet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestPprofHandler exercises the profile surface endpoint by endpoint:
// every runtime profile comes back as a non-empty gzip stream (what
// `go tool pprof` reads), the index lists them, and the first handler
// construction armed the contention samplers.
func TestPprofHandler(t *testing.T) {
	srv := httptest.NewServer(PprofHandler())
	defer srv.Close()

	if f := runtime.SetMutexProfileFraction(-1); f != mutexProfileFraction {
		t.Fatalf("mutex profiling not armed: fraction = %d", f)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, blob)
		}
		return blob
	}
	profiles := []string{"heap", "allocs", "goroutine", "mutex", "block"}
	for _, name := range profiles {
		blob := get("/debug/pprof/" + name + "?debug=0")
		if len(blob) <= 2 || blob[0] != 0x1f || blob[1] != 0x8b {
			t.Fatalf("%s: %d bytes starting %x, want a gzip stream", name, len(blob), blob[:min(len(blob), 2)])
		}
	}

	// The index is the human entry point.
	index := get("/debug/pprof/")
	for _, name := range profiles {
		if !bytes.Contains(index, []byte(name)) {
			t.Errorf("index page does not list %s", name)
		}
	}
}
