package cluster

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"resilientmix/internal/obs"
	"resilientmix/internal/obs/rules"
	"resilientmix/internal/obs/tsdb"
)

// RecorderConfig tunes the continuous telemetry recorder.
type RecorderConfig struct {
	// Interval is the poll period (default 1s).
	Interval time.Duration
	// Out, when non-empty, streams every sample and alert to an
	// append-only tsdb file (.gz for gzip) as it is observed.
	Out string
}

// Recorder is the one observer of a fleet: every anonctl view of a
// cluster (status, smoke, record, watch) is this poll. It fetches every
// node's /metrics and /readyz on an interval — with the package scrape
// retry/backoff policy per fetch — into an embedded time-series store,
// evaluates rules.Defaults() after each poll, and stores fired alerts
// as tsdb annotations so a recorded run replays with its alert history.
// One Recorder records one run.
type Recorder struct {
	m   Manifest
	cfg RecorderConfig
	db  *tsdb.DB
	eng *rules.Engine
	w   *tsdb.Writer

	mu     sync.Mutex
	alerts []rules.Alert
	ticks  int
}

// NewRecorder builds a recorder over a cluster manifest. Close it to
// flush the output file.
func NewRecorder(m Manifest, cfg RecorderConfig) (*Recorder, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	r := &Recorder{
		m:   m,
		cfg: cfg,
		db:  tsdb.New(tsdb.DefaultCapacity),
		eng: rules.NewEngine(rules.Defaults()...),
	}
	if cfg.Out != "" {
		w, err := tsdb.Create(cfg.Out, r.db.Capacity())
		if err != nil {
			return nil, err
		}
		r.w = w
	}
	return r, nil
}

// DB returns the recorder's live store. Safe to render from while
// recording.
func (r *Recorder) DB() *tsdb.DB { return r.db }

// Alerts returns every alert fired so far, in firing order.
func (r *Recorder) Alerts() []rules.Alert {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]rules.Alert(nil), r.alerts...)
}

// Ticks returns the number of completed polls.
func (r *Recorder) Ticks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ticks
}

// nodeScrape is one node's parsed /metrics poll.
type nodeScrape struct {
	node    ManifestNode
	ready   bool
	fams    map[string]*obs.PromFamily
	fetchOK bool
}

// Sample performs one poll of every node at time `at`: fetch
// /metrics (retrying transport errors and 5xx with capped exponential
// backoff) and /readyz concurrently, append one sample per scalar
// metric per node plus synthetic up/ready series, evaluate the rules,
// and return the newly fired alerts. up is 0 for a node that is
// unreachable or whose exposition does not parse under the Prometheus
// 0.0.4 grammar; ready is 0 unless /readyz answers 200.
func (r *Recorder) Sample(at time.Time) []rules.Alert {
	atMicro := at.UnixMicro()
	scrapes := make([]nodeScrape, len(r.m.Nodes))
	var wg sync.WaitGroup
	for i, n := range r.m.Nodes {
		wg.Add(1)
		go func(i int, n ManifestNode) {
			defer wg.Done()
			sc := nodeScrape{node: n}
			if resp, err := getRetry("http://"+n.Debug+"/metrics", true); err == nil {
				fams, perr := obs.ParsePrometheus(resp.Body)
				resp.Body.Close()
				if perr == nil {
					sc.fams = fams
					sc.fetchOK = true
				}
			}
			sc.ready = probeReady(n.Debug) == nil
			scrapes[i] = sc
		}(i, n)
	}
	wg.Wait()

	// Append in manifest order with one shared timestamp so every
	// node's tick aligns — the property cluster rollups and the
	// deterministic replay rendering rely on.
	for _, sc := range scrapes {
		label := tsdb.L("node", strconv.Itoa(sc.node.ID))
		up := 0.0
		if sc.fetchOK {
			up = 1
		}
		ready := 0.0
		if sc.ready {
			ready = 1
		}
		r.append(atMicro, tsdb.Key("up", label), up)
		r.append(atMicro, tsdb.Key("ready", label), ready)
		if !sc.fetchOK {
			continue
		}
		for _, key := range sortedFamilies(sc.fams) {
			fam := sc.fams[key]
			for _, s := range fam.Samples {
				if !scalarSample(fam, s) {
					continue
				}
				r.append(atMicro, tsdb.Key(s.Name, label), s.Value)
			}
		}
	}

	alerts := r.eng.Eval(r.db, atMicro)
	r.mu.Lock()
	r.alerts = append(r.alerts, alerts...)
	r.ticks++
	r.mu.Unlock()
	for _, a := range alerts {
		r.db.Annotate(a.Annotation())
		if r.w != nil {
			r.w.Annotate(a.Annotation())
		}
	}
	if r.w != nil {
		r.w.Flush()
	}
	return alerts
}

// append writes one sample to the store and, when configured, the
// output file.
func (r *Recorder) append(at int64, key string, v float64) {
	r.db.AppendKey(key, at, v)
	if r.w != nil {
		r.w.Sample(at, key, v)
	}
}

// scalarSample reports whether a parsed sample is a plain scalar
// worth recording: histogram buckets are skipped (windowed quantiles
// come from the store itself), as is anything carrying labels —
// node-level families here are label-free, and the recorder adds the
// node label itself.
func scalarSample(fam *obs.PromFamily, s obs.PromSample) bool {
	if len(s.Labels) != 0 {
		return false
	}
	if fam.Type == "histogram" || fam.Type == "summary" {
		return strings.HasSuffix(s.Name, "_sum") || strings.HasSuffix(s.Name, "_count")
	}
	return true
}

// sortedFamilies returns family keys in sorted order for
// deterministic append order.
func sortedFamilies(fams map[string]*obs.PromFamily) []string {
	out := make([]string, 0, len(fams))
	for k := range fams {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run polls on the configured interval until the context is done,
// invoking onTick (if non-nil) after every poll with the newly fired
// alerts.
func (r *Recorder) Run(ctx context.Context, onTick func(at time.Time, fired []rules.Alert)) error {
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		at := time.Now()
		fired := r.Sample(at)
		if onTick != nil {
			onTick(at, fired)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Close flushes and closes the output file, if any. Safe to call
// more than once.
func (r *Recorder) Close() error {
	if r.w == nil {
		return nil
	}
	w := r.w
	r.w = nil
	return w.Close()
}

// VerifyRoundTrip re-reads the recorder's output file and checks the
// reloaded store renders the watch dashboard byte-identically to the
// live in-memory store — the record/replay fidelity contract. It
// closes the output file first (a gzip stream is only readable once
// its footer is written), so record nothing after verifying.
func (r *Recorder) VerifyRoundTrip() error {
	if r.cfg.Out == "" {
		return fmt.Errorf("recorder: no output file to verify")
	}
	if err := r.Close(); err != nil {
		return err
	}
	reloaded, err := tsdb.ReadFile(r.cfg.Out)
	if err != nil {
		return fmt.Errorf("recorder: reloading %s: %w", r.cfg.Out, err)
	}
	live := renderString(r.db)
	replay := renderString(reloaded)
	if live != replay {
		return fmt.Errorf("recorder: replay render differs from live render:\n--- live ---\n%s--- replay ---\n%s", live, replay)
	}
	return nil
}

// renderString renders the watch view to a string.
func renderString(db *tsdb.DB) string {
	var b strings.Builder
	RenderWatch(&b, db)
	return b.String()
}
