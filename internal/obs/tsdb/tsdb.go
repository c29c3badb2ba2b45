// Package tsdb is an embedded time-series store for continuous
// telemetry: the cluster recorder appends one sample per metric per
// node per scrape tick, the rule engine (internal/obs/rules) and the
// watch dashboard (internal/cluster) query it, and `anonctl replay`
// reloads it from disk.
//
// Design constraints, in the repository's usual order:
//
//  1. Bounded memory. Each series is a ring of the most recent
//     `capacity` points; long-horizon runs spill nothing in memory
//     beyond the window the dashboard and rules actually read.
//  2. Deterministic encoding. The on-disk form (append-only JSONL,
//     gzip when the path ends in .gz) is hand-rolled with a fixed
//     field order and shortest-float values, so a DB written and
//     reloaded renders byte-identically — the golden-test contract
//     behind `anonctl record` / `anonctl replay`.
//  3. Zero third-party dependencies: stdlib only.
//
// A series is identified by a metric name plus a sorted label set,
// canonically rendered Prometheus-style: `live_frames_out{node="3"}`.
// Annotations (fired alerts, injected-fault markers) ride in the same
// file so a recorded run replays with its alert history intact.
package tsdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Point is one observation of one series.
type Point struct {
	// At is the sample time in unix microseconds.
	At int64
	// V is the sampled value.
	V float64
}

// Label is one name=value pair.
type Label struct {
	Name  string
	Value string
}

// Labels is a label set; canonical form is sorted by name.
type Labels []Label

// L builds a label set from name, value pairs: L("node", "3").
// Odd-length input panics — it is a programming error, not data.
func L(pairs ...string) Labels {
	if len(pairs)%2 != 0 {
		panic("tsdb: L needs name, value pairs")
	}
	ls := make(Labels, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ls = append(ls, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// Get returns the value of the named label, "" when absent.
func (ls Labels) Get(name string) string {
	for _, l := range ls {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Key renders the canonical series key: the bare name when the label
// set is empty, otherwise `name{a="x",b="y"}` with labels sorted by
// name and values escaped (\\, \" and \n, the Prometheus label escape
// set).
func Key(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append(Labels(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		for j := 0; j < len(l.Value); j++ {
			switch c := l.Value[j]; c {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// ParseKey inverts Key: it splits a canonical series key back into
// name and labels.
func ParseKey(key string) (string, Labels, error) {
	brace := strings.IndexByte(key, '{')
	if brace < 0 {
		return key, nil, nil
	}
	name := key[:brace]
	rest := key[brace:]
	if !strings.HasSuffix(rest, "}") {
		return "", nil, fmt.Errorf("tsdb: unterminated label block in %q", key)
	}
	var labels Labels
	i := 1 // past '{'
	for i < len(rest)-1 {
		eq := strings.IndexByte(rest[i:], '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("tsdb: bad label block in %q", key)
		}
		lname := rest[i : i+eq]
		i += eq + 1
		if i >= len(rest) || rest[i] != '"' {
			return "", nil, fmt.Errorf("tsdb: unquoted label value in %q", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(rest) {
				return "", nil, fmt.Errorf("tsdb: unterminated label value in %q", key)
			}
			c := rest[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				i++
				if i >= len(rest) {
					return "", nil, fmt.Errorf("tsdb: dangling escape in %q", key)
				}
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				default:
					return "", nil, fmt.Errorf("tsdb: bad escape in %q", key)
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: lname, Value: val.String()})
		if i < len(rest)-1 && rest[i] == ',' {
			i++
		}
	}
	return name, labels, nil
}

// Series is one metric stream: a ring of the most recent points.
// Safe for concurrent use.
type Series struct {
	// Name is the metric name.
	Name string
	// Labels is the sorted label set.
	Labels Labels

	key string
	cap int
	mu  sync.Mutex
	// pts grows to cap points and is a ring from then on, next being
	// the oldest point — a series costs what it holds, so the capacity
	// a recording's header declares cannot allocate by itself.
	pts   []Point
	next  int
	total uint64
}

// Key returns the canonical series key.
func (s *Series) Key() string { return s.key }

// append records one point, overwriting the oldest when full.
func (s *Series) append(p Point) {
	s.mu.Lock()
	if len(s.pts) < s.cap {
		s.pts = append(s.pts, p)
	} else {
		s.pts[s.next] = p
		s.next = (s.next + 1) % s.cap
	}
	s.total++
	s.mu.Unlock()
}

// Points returns the retained points, oldest first, as a fresh slice.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, 0, len(s.pts))
	out = append(out, s.pts[s.next:]...)
	out = append(out, s.pts[:s.next]...)
	return out
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pts)
}

// Total returns the number of points ever appended, including ones the
// ring has since overwritten.
func (s *Series) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Latest returns the most recent point.
func (s *Series) Latest() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pts) == 0 {
		return Point{}, false
	}
	i := s.next - 1
	if i < 0 {
		i = len(s.pts) - 1
	}
	return s.pts[i], true
}

// window returns the retained points with At >= latest.At-win (all
// retained points when win <= 0), oldest first.
func (s *Series) window(win int64) []Point {
	pts := s.Points()
	if win <= 0 || len(pts) == 0 {
		return pts
	}
	cut := pts[len(pts)-1].At - win
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].At >= cut })
	return pts[lo:]
}

// CounterDelta returns the counter increase over the window,
// reset-aware: a decrease reads as a restart, contributing the
// post-reset value (the Prometheus `increase` convention). False when
// fewer than two points fall in the window.
func (s *Series) CounterDelta(win int64) (float64, bool) {
	pts := s.window(win)
	if len(pts) < 2 {
		return 0, false
	}
	var inc float64
	for i := 1; i < len(pts); i++ {
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = pts[i].V
		}
		inc += d
	}
	return inc, true
}

// RatePerSec returns the counter increase per second over the window.
func (s *Series) RatePerSec(win int64) (float64, bool) {
	pts := s.window(win)
	if len(pts) < 2 {
		return 0, false
	}
	span := float64(pts[len(pts)-1].At-pts[0].At) / 1e6
	if span <= 0 {
		return 0, false
	}
	inc, _ := s.CounterDelta(win)
	return inc / span, true
}

// TailRates returns the per-interval counter rates (increase per
// second between adjacent samples, reset-aware) of the most recent n
// intervals, oldest first — the sparkline feed for counters.
func (s *Series) TailRates(n int) []float64 {
	pts := s.Points()
	if len(pts) < 2 {
		return nil
	}
	rates := make([]float64, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = pts[i].V
		}
		span := float64(pts[i].At-pts[i-1].At) / 1e6
		if span <= 0 {
			rates = append(rates, 0)
			continue
		}
		rates = append(rates, d/span)
	}
	if len(rates) > n {
		rates = rates[len(rates)-n:]
	}
	return rates
}

// Annotation is a structured event marker stored alongside the
// samples: a fired alert, an injected fault, a run boundary. It
// replays with the data so a recorded run keeps its alert history.
type Annotation struct {
	// At is the annotation time in unix microseconds.
	At int64 `json:"at"`
	// Kind names the annotation (the rule name, for alerts).
	Kind string `json:"kind"`
	// Series is the offending series key; "" means cluster-wide.
	Series string `json:"series,omitempty"`
	// Value is the observed value that triggered the annotation.
	Value float64 `json:"value"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail,omitempty"`
}

// DB is a set of series plus annotations. Safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	cap    int
	series map[string]*Series
	ann    []Annotation
}

// DefaultCapacity is the per-series ring size when New is given a
// non-positive capacity: at one sample per second, ~17 minutes.
const DefaultCapacity = 1024

// New returns an empty DB whose series each retain up to capacity
// points (DefaultCapacity when capacity <= 0).
func New(capacity int) *DB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DB{cap: capacity, series: make(map[string]*Series)}
}

// Capacity returns the per-series ring size.
func (db *DB) Capacity() int { return db.cap }

// Append records one sample, creating the series on first use.
func (db *DB) Append(name string, labels Labels, at int64, v float64) {
	db.AppendKey(Key(name, labels), at, v)
}

// AppendKey records one sample under a pre-rendered canonical key.
// Malformed keys are dropped.
func (db *DB) AppendKey(key string, at int64, v float64) {
	db.mu.RLock()
	s := db.series[key]
	db.mu.RUnlock()
	if s == nil {
		name, labels, err := ParseKey(key)
		if err != nil {
			return
		}
		db.mu.Lock()
		s = db.series[key]
		if s == nil {
			s = &Series{Name: name, Labels: labels, key: key, cap: db.cap}
			db.series[key] = s
		}
		db.mu.Unlock()
	}
	s.append(Point{At: at, V: v})
}

// Get returns the series for name+labels, nil when absent.
func (db *DB) Get(name string, labels Labels) *Series {
	key := Key(name, labels)
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.series[key]
}

// All returns every series, sorted by key.
func (db *DB) All() []*Series {
	db.mu.RLock()
	out := make([]*Series, 0, len(db.series))
	for _, s := range db.series {
		out = append(out, s)
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// ByName returns every series with the given metric name, sorted by
// key.
func (db *DB) ByName(name string) []*Series {
	db.mu.RLock()
	var out []*Series
	for _, s := range db.series {
		if s.Name == name {
			out = append(out, s)
		}
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// byPrefix returns every series whose metric name starts with prefix,
// sorted by key.
func (db *DB) byPrefix(prefix string) []*Series {
	db.mu.RLock()
	var out []*Series
	for _, s := range db.series {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Match returns series by name pattern: a trailing '*' matches any
// suffix ("live_frames_in_*"), otherwise the name must match exactly.
func (db *DB) Match(pattern string) []*Series {
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return db.byPrefix(p)
	}
	return db.ByName(pattern)
}

// Annotate appends one annotation.
func (db *DB) Annotate(a Annotation) {
	db.mu.Lock()
	db.ann = append(db.ann, a)
	db.mu.Unlock()
}

// Annotations returns all annotations in append order, as a fresh
// slice.
func (db *DB) Annotations() []Annotation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]Annotation(nil), db.ann...)
}

// Bounds returns the earliest and latest sample time across every
// series' retained points; ok is false for an empty DB.
func (db *DB) Bounds() (first, last int64, ok bool) {
	for _, s := range db.All() {
		pts := s.Points()
		if len(pts) == 0 {
			continue
		}
		if !ok || pts[0].At < first {
			first = pts[0].At
		}
		if !ok || pts[len(pts)-1].At > last {
			last = pts[len(pts)-1].At
		}
		ok = true
	}
	return first, last, ok
}
