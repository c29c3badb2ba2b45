package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"resilientmix/internal/obs/prof"
)

// profServer serves a canned profile at /debug/pprof/heap.
func profServer(t *testing.T, p *prof.Profile, status int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			http.NotFound(w, r)
			return
		}
		if status != http.StatusOK {
			http.Error(w, "boom", status)
			return
		}
		w.Write(p.Marshal())
	}))
	t.Cleanup(srv.Close)
	return srv
}

func testProfile(vals ...int64) *prof.Profile {
	p := &prof.Profile{
		SampleTypes: []prof.ValueType{{Type: "alloc_space", Unit: "bytes"}},
	}
	for _, v := range vals {
		p.Samples = append(p.Samples, prof.Sample{
			Stack:  []string{"resilientmix/internal/onioncrypt.ECIES.Seal"},
			Values: []int64{v},
		})
	}
	return p
}

func TestHarvestProfilesMergesAcrossNodes(t *testing.T) {
	a := profServer(t, testProfile(100), http.StatusOK)
	b := profServer(t, testProfile(100), http.StatusOK)
	m := Manifest{Nodes: []ManifestNode{
		{ID: 0, Debug: strings.TrimPrefix(a.URL, "http://")},
		{ID: 1, Debug: strings.TrimPrefix(b.URL, "http://")},
	}}
	h := HarvestProfiles(m, "heap", 0)
	if len(h.Errs) != 0 {
		t.Fatalf("errs = %v", h.Errs)
	}
	if h.Nodes != 2 || h.Merged == nil {
		t.Fatalf("harvest = %+v", h)
	}
	// Identical stacks sum across nodes.
	if got := h.Merged.Total(0); got != 200 {
		t.Fatalf("merged total = %d, want 200", got)
	}
}

func TestHarvestProfilesPartialFailure(t *testing.T) {
	// Keep the retry loop fast: the failing node answers 404
	// (profiles absent — no retry), not a transport error.
	good := profServer(t, testProfile(42), http.StatusOK)
	bad := profServer(t, nil, http.StatusNotFound)
	m := Manifest{Nodes: []ManifestNode{
		{ID: 0, Debug: strings.TrimPrefix(good.URL, "http://")},
		{ID: 1, Debug: strings.TrimPrefix(bad.URL, "http://")},
	}}
	h := HarvestProfiles(m, "heap", 0)
	if h.Nodes != 1 || h.Merged == nil {
		t.Fatalf("harvest = %+v", h)
	}
	if _, ok := h.Errs[1]; !ok {
		t.Fatalf("node 1 failure not recorded: %v", h.Errs)
	}
	if got := h.Merged.Total(0); got != 42 {
		t.Fatalf("merged total = %d", got)
	}
}
