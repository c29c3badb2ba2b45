package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the harness made into a layer. Spans of one
// message share Msg; Parent is the index of the causing span, -1 for a
// root, or parentOfMsg for "the root span of Msg" (used by callbacks
// that run on the fleet's goroutines and cannot know the index).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Msg    uint64 `json:"msg"`
}

const parentOfMsg = -2

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run is built.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent int, msg uint64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Msg: msg,
	})
	return len(t.spans) - 1
}

// begin records a span whose end is not known yet; finish closes it.
func (t *tracer) begin(name string, start time.Time, parent int, msg uint64) int {
	return t.add(name, start, start, parent, msg)
}

func (t *tracer) finish(idx int, end time.Time) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// resolve replaces parentOfMsg references by the index of the message's
// root span ("msg"); a callback whose message has no root becomes a root.
func (t *tracer) resolve() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := make(map[uint64]int)
	for i, s := range t.spans {
		if s.Name == "msg" {
			roots[s.Msg] = i
		}
	}
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].Parent == parentOfMsg {
			if r, ok := roots[out[i].Msg]; ok {
				out[i].Parent = r
			} else {
				out[i].Parent = -1
			}
		}
	}
	return out
}

// layerRow is one line of the per-layer table: a span name with its
// total and self time (duration minus the part its children cover).
type layerRow struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

func selfTimes(spans []span) []layerRow {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := make(map[string]*layerRow)
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		// Covered time: the union of the children's intervals, clipped
		// to the parent.
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			a, b := spans[k].Start, spans[k].End
			if a < cursor {
				a = cursor
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				covered += b - a
				cursor = b
			}
		}
		r.Count++
		r.TotalMS += float64(dur) / 1e6
		r.SelfMS += float64(dur-covered) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}

// writeSpans writes one JSON object per span; "id" is the index that
// other spans' "parent" refers to.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID int `json:"id"`
			span
		}{i, s}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
