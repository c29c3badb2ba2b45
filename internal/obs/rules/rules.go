// Package rules is the anomaly/SLO rule engine of the continuous
// telemetry pipeline: it evaluates declarative rules against a tsdb
// (internal/obs/tsdb) each scrape tick and emits structured alerts.
//
// Six rule kinds cover the failure dynamics the paper's redundancy
// and repair machinery exists to survive:
//
//   - Threshold: the latest value of a series breaches a bound
//     (node down: up < 1).
//   - Rate: the counter rate over a window breaches a bound
//     (send-error storm).
//   - BurnRate: the ratio of two counter increases over a window
//     breaches a bound — the SLO burn form (segment loss ratio,
//     repair-spike rate).
//   - Absence: a per-node counter stayed flat over a window while a
//     cluster-wide reference moved (silent relay, generalized from
//     the one-shot aggregate check in internal/cluster).
//   - Flap: a value changed state too many times inside a window
//     (readiness flapping).
//   - Trend: a gauge grew too fast over a window, relatively (Value)
//     and absolutely (MinDelta) at once — the resource-leak form
//     (goroutine leak, unbounded heap growth).
//
// Firing is edge-triggered with hysteresis: a condition must breach
// For consecutive evaluations to fire, fires exactly once per breach
// episode, and re-arms only after the condition clears. One injected
// relay failure therefore produces exactly one alert, however long
// the outage lasts.
package rules

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"resilientmix/internal/obs/tsdb"
)

// Op is a comparison direction.
type Op string

// Comparison directions.
const (
	OpGT Op = ">"
	OpLT Op = "<"
)

// cmp applies the operator; an empty Op defaults to OpGT.
func (o Op) cmp(v, bound float64) bool {
	if o == OpLT {
		return v < bound
	}
	return v > bound
}

// Kind selects the rule evaluation.
type Kind string

// Rule kinds.
const (
	Threshold Kind = "threshold"
	Rate      Kind = "rate"
	BurnRate  Kind = "burn"
	Absence   Kind = "absence"
	Flap      Kind = "flap"
	Trend     Kind = "trend"
)

// Rule is one declarative alerting condition.
type Rule struct {
	// Name identifies the rule in alerts; must be unique in an engine.
	Name string
	// Kind selects the evaluation.
	Kind Kind
	// Metric is the series name the rule reads (Threshold, Rate,
	// Absence, Flap). A trailing '*' matches any suffix, summing the
	// matched series per evaluation target.
	Metric string
	// PerNode evaluates the rule once per distinct "node" label value
	// of the matched series instead of once cluster-wide.
	PerNode bool
	// Op compares the observed value against Value (defaults to >).
	Op Op
	// Value is the breach bound: the threshold, rate, ratio, or (for
	// Flap) the transition count.
	Value float64
	// Window bounds the observation in microseconds (Rate, BurnRate,
	// Absence, Flap); 0 means all retained points.
	Window int64
	// For is the number of consecutive breaching evaluations before
	// the rule fires; 0 and 1 both mean "fire on first breach".
	For int

	// Num and Den are the numerator/denominator counters of a
	// BurnRate rule (each may use a trailing '*').
	Num, Den string
	// Complement inverts the BurnRate ratio to 1-num/den — the form
	// loss ratios take when only successes are counted.
	Complement bool

	// RefMetric is the Absence rule's cluster-wide activity
	// reference; the rule only breaches when the reference moved by
	// at least MinRef over the window.
	RefMetric string
	MinRef    float64

	// MinDelta is the Trend rule's absolute-growth floor: relative
	// growth only breaches when |last − first| also reaches MinDelta,
	// so a gauge doubling from 3 to 6 on an idle node cannot page.
	MinDelta float64
}

// Alert is one fired rule: the structured event the recorder stores
// as a tsdb annotation and the dashboard renders.
type Alert struct {
	// At is the evaluation time in unix microseconds.
	At int64 `json:"at"`
	// Rule is the firing rule's name.
	Rule string `json:"rule"`
	// Series is the offending series key; "" for cluster-wide rules.
	Series string `json:"series,omitempty"`
	// Value is the observed value that breached.
	Value float64 `json:"value"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail"`
}

// Annotation converts the alert to its tsdb storage form.
func (a Alert) Annotation() tsdb.Annotation {
	return tsdb.Annotation{At: a.At, Kind: a.Rule, Series: a.Series, Value: a.Value, Detail: a.Detail}
}

// condState tracks one (rule, target) condition across evaluations.
type condState struct {
	pending int
	firing  bool
}

// Engine evaluates a fixed rule set against a tsdb, carrying firing
// state between evaluations. Not safe for concurrent use; the
// recorder evaluates from one goroutine.
type Engine struct {
	rules []Rule
	state map[string]*condState
}

// NewEngine builds an engine over the given rules.
func NewEngine(rs ...Rule) *Engine {
	return &Engine{rules: append([]Rule(nil), rs...), state: make(map[string]*condState)}
}

// observation is one evaluation target's outcome.
type observation struct {
	target string // series key, "" for cluster
	value  float64
	breach bool
	detail string
}

// Eval evaluates every rule against db at time `at` and returns the
// newly fired alerts (conditions transitioning into their firing
// state), in rule order then target order — deterministic for a given
// db.
func (e *Engine) Eval(db *tsdb.DB, at int64) []Alert {
	var out []Alert
	for _, r := range e.rules {
		for _, ob := range e.observe(db, r) {
			key := r.Name + "\x00" + ob.target
			st := e.state[key]
			if st == nil {
				st = &condState{}
				e.state[key] = st
			}
			if !ob.breach {
				st.pending = 0
				st.firing = false
				continue
			}
			st.pending++
			need := r.For
			if need < 1 {
				need = 1
			}
			if st.pending >= need && !st.firing {
				st.firing = true
				out = append(out, Alert{At: at, Rule: r.Name, Series: ob.target, Value: ob.value, Detail: ob.detail})
			}
		}
	}
	return out
}

// observe computes the rule's targets and breach outcomes.
func (e *Engine) observe(db *tsdb.DB, r Rule) []observation {
	switch r.Kind {
	case Threshold:
		return forTargets(db, r, func(group []*tsdb.Series) (float64, bool) {
			var sum float64
			any := false
			for _, s := range group {
				if p, ok := s.Latest(); ok {
					sum += p.V
					any = true
				}
			}
			return sum, any
		}, func(v float64) string {
			return fmt.Sprintf("%s = %g, breaching %s %g", r.Metric, v, opName(r.Op), r.Value)
		})
	case Rate:
		return forTargets(db, r, func(group []*tsdb.Series) (float64, bool) {
			return groupRate(group, r.Window)
		}, func(v float64) string {
			return fmt.Sprintf("%s rate = %.3g/s, breaching %s %g/s", r.Metric, v, opName(r.Op), r.Value)
		})
	case BurnRate:
		return e.observeBurn(db, r)
	case Absence:
		return e.observeAbsence(db, r)
	case Trend:
		return e.observeTrend(db, r)
	case Flap:
		return forTargets(db, r, func(group []*tsdb.Series) (float64, bool) {
			var flips float64
			any := false
			for _, s := range group {
				flips += transitions(s, r.Window)
				any = true
			}
			return flips, any
		}, func(v float64) string {
			return fmt.Sprintf("%s changed state %g times in window", r.Metric, v)
		})
	}
	return nil
}

// forTargets groups the matched series (cluster-wide, or per node
// label) and applies the measure; detail renders the breach text.
func forTargets(db *tsdb.DB, r Rule, measure func([]*tsdb.Series) (float64, bool), detail func(float64) string) []observation {
	groups := groupSeries(db, r)
	out := make([]observation, 0, len(groups))
	for _, g := range groups {
		v, ok := measure(g.series)
		if !ok {
			continue
		}
		ob := observation{target: g.target, value: v, breach: r.Op.cmp(v, r.Value)}
		if ob.breach {
			ob.detail = detail(v)
		}
		out = append(out, ob)
	}
	return out
}

// group is one evaluation target's series set.
type group struct {
	target string
	series []*tsdb.Series
}

// groupSeries splits the matched series into evaluation targets:
// one cluster-wide group, or one per "node" label value. Per-node
// targets are named by the key of their first series (stable, sorted)
// so alerts point at a concrete series. A per-node rule judges what a
// node reports, and a node currently marked down (its up{node=...}
// series reads 0) reports nothing: every rule but the one on up itself
// skips it — node-down is its own rule, and a dead node is not also a
// silent, unready or leaking one.
func groupSeries(db *tsdb.DB, r Rule) []group {
	matched := db.Match(r.Metric)
	if len(matched) == 0 {
		return nil
	}
	if !r.PerNode {
		return []group{{target: "", series: matched}}
	}
	byNode := make(map[string][]*tsdb.Series)
	for _, s := range matched {
		byNode[s.Labels.Get("node")] = append(byNode[s.Labels.Get("node")], s)
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	out := make([]group, 0, len(nodes))
	for _, n := range nodes {
		if r.Metric != "up" && nodeDown(db, n) {
			continue
		}
		g := byNode[n]
		out = append(out, group{target: g[0].Key(), series: g})
	}
	return out
}

// nodeDown reports whether the node's latest up sample reads below 1.
func nodeDown(db *tsdb.DB, node string) bool {
	up := db.Get("up", tsdb.L("node", node))
	if up == nil {
		return false
	}
	p, ok := up.Latest()
	return ok && p.V < 1
}

// groupRate sums the per-second counter rates across a group.
func groupRate(group []*tsdb.Series, win int64) (float64, bool) {
	var sum float64
	any := false
	for _, s := range group {
		if v, ok := s.RatePerSec(win); ok {
			sum += v
			any = true
		}
	}
	return sum, any
}

// groupDelta sums the reset-aware counter increases across a group.
func groupDelta(group []*tsdb.Series, win int64) (float64, bool) {
	var sum float64
	any := false
	for _, s := range group {
		if v, ok := s.CounterDelta(win); ok {
			sum += v
			any = true
		}
	}
	return sum, any
}

// observeBurn evaluates a BurnRate rule: ratio of num to den counter
// increases over the window. A zero denominator with a nonzero
// numerator reads as an infinite ratio (always a breach under OpGT);
// with Complement set a zero denominator is skipped instead — no
// traffic cannot burn a loss budget.
func (e *Engine) observeBurn(db *tsdb.DB, r Rule) []observation {
	num, okN := groupDelta(db.Match(r.Num), r.Window)
	den, okD := groupDelta(db.Match(r.Den), r.Window)
	if !okN || !okD {
		return nil
	}
	var ratio float64
	switch {
	case den > 0:
		ratio = num / den
		if r.Complement {
			ratio = 1 - ratio
		}
	case r.Complement:
		return []observation{{target: "", value: 0}}
	case num > 0:
		ratio = math.Inf(1)
	default:
		return []observation{{target: "", value: 0}}
	}
	ob := observation{target: "", value: ratio, breach: r.Op.cmp(ratio, r.Value)}
	if ob.breach {
		ob.detail = fmt.Sprintf("%s/%s = %.3g over window (%g of %g), breaching %s %g",
			r.Num, r.Den, ratio, num, den, opName(r.Op), r.Value)
	}
	return []observation{ob}
}

// observeAbsence evaluates an Absence rule: per-node silence while
// the cluster reference moved.
func (e *Engine) observeAbsence(db *tsdb.DB, r Rule) []observation {
	ref, ok := groupDelta(db.Match(r.RefMetric), r.Window)
	if !ok {
		return nil
	}
	refMoved := ref >= r.MinRef
	var out []observation
	for _, g := range groupSeries(db, Rule{Metric: r.Metric, PerNode: true}) {
		node := g.series[0].Labels.Get("node")
		moved, ok := groupDelta(g.series, r.Window)
		if !ok {
			continue
		}
		ob := observation{target: g.target, value: moved, breach: refMoved && moved == 0}
		if ob.breach {
			ob.detail = fmt.Sprintf("%s flat on node %s while cluster %s moved %g in window",
				strings.TrimSuffix(r.Metric, "*"), node, strings.TrimSuffix(r.RefMetric, "*"), ref)
		}
		out = append(out, ob)
	}
	return out
}

// observeTrend evaluates a Trend rule: the relative growth of a gauge
// between the first and last points of the window, gated by the
// MinDelta absolute floor. A target whose window starts at or below
// zero yields a non-breaching observation (relative growth from
// nothing is meaningless, and emitting it lets the firing state
// re-arm).
func (e *Engine) observeTrend(db *tsdb.DB, r Rule) []observation {
	groups := groupSeries(db, r)
	out := make([]observation, 0, len(groups))
	for _, g := range groups {
		var first, last float64
		any := false
		for _, s := range g.series {
			if f, l, ok := windowEnds(s, r.Window); ok {
				first += f
				last += l
				any = true
			}
		}
		if !any {
			continue
		}
		growth := last - first
		ob := observation{target: g.target}
		if first > 0 {
			rel := growth / first
			ob.value = rel
			ob.breach = r.Op.cmp(rel, r.Value) && math.Abs(growth) >= r.MinDelta
			if ob.breach {
				ob.detail = fmt.Sprintf("%s grew %.0f%% in window (%g → %g, Δ%g ≥ %g), breaching %s %g",
					r.Metric, rel*100, first, last, growth, r.MinDelta, opName(r.Op), r.Value)
			}
		}
		out = append(out, ob)
	}
	return out
}

// windowEnds returns a series' first and last values inside the
// window ending at its newest point.
func windowEnds(s *tsdb.Series, win int64) (first, last float64, ok bool) {
	pts := s.Points()
	if len(pts) == 0 {
		return 0, 0, false
	}
	last = pts[len(pts)-1].V
	if win <= 0 {
		return pts[0].V, last, true
	}
	cut := pts[len(pts)-1].At - win
	for _, p := range pts {
		if p.At >= cut {
			return p.V, last, true
		}
	}
	return pts[len(pts)-1].V, last, true
}

// transitions counts value changes between adjacent points in the
// window.
func transitions(s *tsdb.Series, win int64) float64 {
	var pts []tsdb.Point
	if win <= 0 {
		pts = s.Points()
	} else {
		all := s.Points()
		if len(all) == 0 {
			return 0
		}
		cut := all[len(all)-1].At - win
		for _, p := range all {
			if p.At >= cut {
				pts = append(pts, p)
			}
		}
	}
	var flips float64
	for i := 1; i < len(pts); i++ {
		if pts[i].V != pts[i-1].V {
			flips++
		}
	}
	return flips
}

// opName renders the operator for detail strings.
func opName(o Op) string {
	if o == OpLT {
		return "<"
	}
	return ">"
}
