package cluster

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientmix/internal/obs"
	"resilientmix/internal/obs/tsdb"
)

// recNode serves a minimal anonnode debug surface from a live
// registry.
type recNode struct {
	reg *obs.Registry
	srv *httptest.Server
}

func newFakeNode(t *testing.T) *recNode {
	t.Helper()
	f := &recNode{reg: obs.NewRegistry()}
	mux := http.NewServeMux()
	mux.Handle("/metrics", f.reg.PrometheusHandler())
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *recNode) debugAddr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

// fastBackoff shrinks the retry delays for test speed and restores them
// afterwards.
func fastBackoff(t *testing.T) {
	t.Helper()
	old := scrapePolicy
	scrapePolicy.Backoff, scrapePolicy.BackoffCap = time.Millisecond, 4*time.Millisecond
	t.Cleanup(func() { scrapePolicy = old })
}

func TestRecorderSamplesAndRoundTrips(t *testing.T) {
	fastBackoff(t)
	a, b := newFakeNode(t), newFakeNode(t)
	m := Manifest{Nodes: []ManifestNode{
		{ID: 0, Debug: a.debugAddr()},
		{ID: 1, Debug: b.debugAddr()},
	}}
	out := filepath.Join(t.TempDir(), "run.tsdb.gz")
	rec, err := NewRecorder(m, RecorderConfig{Out: out})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	base := time.Unix(1700000000, 0)
	for i := 0; i < 4; i++ {
		a.reg.Counter("live.frames_out").Add(10)
		a.reg.Counter("live.frames_in.data").Add(10)
		b.reg.Counter("live.frames_out").Add(10)
		b.reg.Counter("live.frames_in.data").Add(10)
		b.reg.Gauge("live.forward_states").Set(float64(i))
		if fired := rec.Sample(base.Add(time.Duration(i) * time.Second)); len(fired) != 0 {
			t.Fatalf("healthy cluster fired alerts: %+v", fired)
		}
	}
	if rec.Ticks() != 4 {
		t.Fatalf("Ticks = %d, want 4", rec.Ticks())
	}

	db := rec.DB()
	if s := db.Get("live_frames_out", tsdb.L("node", "0")); s == nil || s.Len() != 4 {
		t.Fatal("frames_out not recorded per node under sanitized name")
	}
	if v, ok := db.Get("up", tsdb.L("node", "1")).Latest(); !ok || v.V != 1 {
		t.Fatal("up probe not recorded")
	}
	if v, ok := db.Get("ready", tsdb.L("node", "0")).Latest(); !ok || v.V != 1 {
		t.Fatal("ready probe not recorded")
	}
	if s := db.Get("live_forward_states", tsdb.L("node", "1")); s == nil {
		t.Fatal("gauge not recorded")
	}

	// The streamed file must replay to a byte-identical dashboard.
	if err := rec.VerifyRoundTrip(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderRetriesTransientFailures is the backoff satellite's
// regression test: a node whose /metrics fails transiently (one 500,
// as a GC pause or accept hiccup would look through a proxy) must
// still scrape as up once the retry lands.
func TestRecorderRetriesTransientFailures(t *testing.T) {
	fastBackoff(t)
	var calls atomic.Int64
	reg := obs.NewRegistry()
	reg.Counter("live.frames_out").Add(5)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 { // every first attempt fails
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		obs.WritePrometheus(w, reg.Snapshot())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	m := Manifest{Nodes: []ManifestNode{{ID: 0, Debug: strings.TrimPrefix(srv.URL, "http://")}}}
	rec, err := NewRecorder(m, RecorderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Sample(time.Unix(1700000000, 0))
	if v, ok := rec.DB().Get("up", tsdb.L("node", "0")).Latest(); !ok || v.V != 1 {
		t.Fatalf("transient 500 marked the node down (up=%v)", v.V)
	}
	if calls.Load() < 2 {
		t.Fatalf("expected a retry, got %d calls", calls.Load())
	}
}

// TestRecorderMarksDeadNodeDown: a node that stays unreachable after
// the whole retry budget records up=0 and fires node-down after two
// consecutive failed scrapes.
func TestRecorderMarksDeadNodeDown(t *testing.T) {
	fastBackoff(t)
	live := newFakeNode(t)
	dead := newFakeNode(t)
	deadAddr := dead.debugAddr()
	dead.srv.Close() // port now refuses connections

	m := Manifest{Nodes: []ManifestNode{
		{ID: 0, Debug: live.debugAddr()},
		{ID: 1, Debug: deadAddr},
	}}
	rec, err := NewRecorder(m, RecorderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0)
	var fired int
	for i := 0; i < 3; i++ {
		live.reg.Counter("live.frames_out").Add(1)
		for _, a := range rec.Sample(base.Add(time.Duration(i) * time.Second)) {
			if a.Rule == "node-down" {
				fired++
			}
		}
	}
	if v, ok := rec.DB().Get("up", tsdb.L("node", "1")).Latest(); !ok || v.V != 0 {
		t.Fatalf("dead node not recorded as down (up=%v, ok=%v)", v.V, ok)
	}
	if fired != 1 {
		t.Fatalf("node-down fired %d times, want exactly 1", fired)
	}
	anns := rec.DB().Annotations()
	if len(anns) != 1 || anns[0].Kind != "node-down" {
		t.Fatalf("annotations = %+v, want the node-down alert stored in the run", anns)
	}
}

// TestRecorderNodeStates pins what one node's answers turn into: the
// up / ready series every view renders, and the one alert the standing
// rules raise for the episode.
func TestRecorderNodeStates(t *testing.T) {
	fastBackoff(t)
	cases := []struct {
		name      string
		metrics   http.HandlerFunc // nil: the registry's exposition
		readyz    http.HandlerFunc // nil: 200
		dead      bool             // nothing listens on the debug address
		up, ready float64
		alert     string
	}{
		{name: "healthy", up: 1, ready: 1},
		{name: "unreachable", dead: true, up: 0, ready: 0, alert: "node-down"},
		{name: "readyz 503", up: 1, ready: 0, alert: "not-ready",
			readyz: func(w http.ResponseWriter, _ *http.Request) {
				http.Error(w, "not ready: peers down", http.StatusServiceUnavailable)
			}},
		{name: "exposition does not parse", up: 0, ready: 1, alert: "node-down",
			metrics: func(w http.ResponseWriter, _ *http.Request) {
				w.Write([]byte("this is not prometheus\n"))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			reg.Counter("live.frames_out").Add(7)
			reg.Counter("session.segments_sent").Add(4)
			reg.Gauge("live.forward_states").Set(2)
			mux := http.NewServeMux()
			if tc.metrics == nil {
				mux.Handle("/metrics", reg.PrometheusHandler())
			} else {
				mux.Handle("/metrics", tc.metrics)
			}
			if tc.readyz == nil {
				tc.readyz = func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ready\n")) }
			}
			mux.Handle("/readyz", tc.readyz)
			srv := httptest.NewServer(mux)
			defer srv.Close()
			if tc.dead {
				srv.Close() // port now refuses connections
			}

			label := tsdb.L("node", "0")
			rec, err := NewRecorder(Manifest{Nodes: []ManifestNode{
				{ID: 0, Debug: strings.TrimPrefix(srv.URL, "http://")},
			}}, RecorderConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var fired []string
			for i := 0; i < 3; i++ {
				for _, a := range rec.Sample(time.Unix(1700000000+int64(i), 0)) {
					if !strings.HasSuffix(a.Series, `{node="0"}`) {
						t.Errorf("alert %s names series %q, not node 0", a.Rule, a.Series)
					}
					fired = append(fired, a.Rule)
				}
			}
			if tc.alert == "" && len(fired) != 0 || tc.alert != "" && (len(fired) != 1 || fired[0] != tc.alert) {
				t.Fatalf("alerts over three ticks = %v, want [%s] once", fired, tc.alert)
			}

			db := rec.DB()
			if p, ok := db.Get("up", label).Latest(); !ok || p.V != tc.up {
				t.Fatalf("up = %v (recorded %v), want %v", p.V, ok, tc.up)
			}
			if p, ok := db.Get("ready", label).Latest(); !ok || p.V != tc.ready {
				t.Fatalf("ready = %v (recorded %v), want %v", p.V, ok, tc.ready)
			}
			// A node that is up has its registry in the store under the
			// sanitized names; one that is not contributes nothing else.
			for name, want := range map[string]float64{
				"live_frames_out": 7, "session_segments_sent": 4, "live_forward_states": 2,
			} {
				s := db.Get(name, label)
				if tc.up == 0 {
					if s != nil {
						t.Fatalf("%s recorded from a node that is down", name)
					}
					continue
				}
				if s == nil {
					t.Fatalf("%s not recorded", name)
				}
				if p, _ := s.Latest(); p.V != want {
					t.Fatalf("%s = %v, want %v", name, p.V, want)
				}
			}
		})
	}
}

// TestGetRetryBackoffCaps exercises the capped growth directly.
func TestGetRetryBackoffCaps(t *testing.T) {
	fastBackoff(t)
	var mu sync.Mutex
	var stamps []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		stamps = append(stamps, time.Now())
		mu.Unlock()
		http.Error(w, "always down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	_, err := getRetry(srv.URL, true)
	if err == nil {
		t.Fatal("getRetry succeeded against a 500-only server")
	}
	if len(stamps) != scrapePolicy.Attempts {
		t.Fatalf("attempts = %d, want %d", len(stamps), scrapePolicy.Attempts)
	}
	// A 200-status answer must not be retried.
	var oks atomic.Int64
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		oks.Add(1)
	}))
	defer ok.Close()
	resp, err := getRetry(ok.URL, true)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if oks.Load() != 1 {
		t.Fatalf("successful fetch used %d attempts, want 1", oks.Load())
	}
}
