package main

import (
	"crypto/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"resilientmix/internal/livenet"
	"resilientmix/internal/onioncrypt"
)

// TestDebugMuxInventory pins DESIGN.md §7's endpoint inventory in code:
// the -debug mux serves exactly the five endpoints something reads, and
// the three nothing read (/healthz, /health, /debug/vars) are gone. A
// sixth endpoint fails here until it has a row, and a reader, there.
func TestDebugMuxInventory(t *testing.T) {
	var mounted []string
	for path := range debugEndpoints {
		mounted = append(mounted, path)
	}
	sort.Strings(mounted)
	want := []string{"/debug/fault", "/debug/pprof/", "/debug/trace", "/metrics", "/readyz"}
	if !slices.Equal(mounted, want) {
		t.Fatalf("debug endpoints %v, want exactly %v", mounted, want)
	}

	kp, err := onioncrypt.ECIES{}.GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	roster, err := livenet.NewRoster([]livenet.Peer{{ID: 0, Addr: "127.0.0.1:0", Public: kp.Public}})
	if err != nil {
		t.Fatal(err)
	}
	node, err := livenet.Start("127.0.0.1:0", livenet.Config{ID: 0, Roster: roster, Private: kp.Private})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	mux := debugMux(node)

	for _, path := range want {
		if _, pattern := mux.Handler(httptest.NewRequest("GET", path, nil)); pattern != path {
			t.Errorf("%s is served by pattern %q", path, pattern)
		}
	}
	// The cheap ones answer; trace, fault and pprof have their own tests
	// in internal/livenet.
	for _, path := range []string{"/metrics", "/readyz", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
	for _, path := range []string{"/healthz", "/health", "/debug/vars", "/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}
}
