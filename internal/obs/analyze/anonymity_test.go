package analyze

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"resilientmix/internal/obs"
	"resilientmix/internal/sim"
)

const (
	ms  = int64(sim.Millisecond)
	sec = int64(sim.Second)
)

// wire is an untagged send (construction, ack, cover): the correlator
// sees it like any other.
func wire(at int64, from int) obs.Event {
	return obs.Event{Type: obs.MsgSent, At: at, Node: from, Peer: -1, Slot: -1, Hop: -1, Size: 100}
}

// victims are the MIDs below 100: the conversation the compromised
// responder knows is its own. Higher MIDs are cover dummies.
func victims(res *Result) map[uint64]bool {
	v := make(map[uint64]bool)
	for _, st := range res.Streams {
		if st.MID < 100 {
			v[st.MID] = true
		}
	}
	return v
}

// TestCorrelate drives §4.6's timing-correlation readout with
// synthetic traces. Coverage is drawn with seed 5 in every case.
func TestCorrelate(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		p       float64
		window  int64
		events  func(t *testing.T, covered []bool) []obs.Event
		exclude []int
		want    Correlation
		wantErr bool
	}{
		{name: "validation/negative coverage", n: 10, p: -0.1, window: sec, wantErr: true},
		{name: "validation/coverage above 1", n: 10, p: 1.1, window: sec, wantErr: true},
		{name: "validation/zero window", n: 10, p: 0.5, window: 0, wantErr: true},
		{name: "validation/negative window", n: 10, p: 0.5, window: -sec, wantErr: true},
		{
			// Node 3 sends 100 ms before each of 10 deliveries; node 5
			// sends at unrelated times, right before a cover dummy's
			// reconstruction, which the responder does not count.
			name: "lone sender", n: 8, p: 1, window: sec, exclude: []int{0},
			events: func(*testing.T, []bool) []obs.Event {
				var ev []obs.Event
				for i := int64(0); i < 10; i++ {
					base := i * 10 * sec
					ev = append(ev,
						segSent(base, 3, 0, uint64(1+i), 0, 0),
						wire(base, 3),
						reconstructed(base+100*ms, 0, uint64(1+i)),
						wire(base+3*sec, 5),
						reconstructed(base+3*sec+100*ms, 0, uint64(100+i)),
					)
				}
				return ev
			},
			want: Correlation{Deliveries: 10, Top: 1, Ambiguity: 1, Success: 1},
		},
		{
			// Every node sends right before every delivery (perfect
			// cover): all observed nodes but the excluded responder tie.
			name: "cover washes out", n: 16, p: 1, window: sec, exclude: []int{0},
			events: func(*testing.T, []bool) []obs.Event {
				var ev []obs.Event
				for i := int64(0); i < 10; i++ {
					base := i * 10 * sec
					ev = append(ev, segSent(base, 3, 0, uint64(1+i), 0, 0))
					for x := 0; x < 16; x++ {
						ev = append(ev, wire(base, x))
					}
					ev = append(ev, reconstructed(base+100*ms, 0, uint64(1+i)))
				}
				return ev
			},
			want: Correlation{Deliveries: 10, Top: 1, Ambiguity: 15, Success: 1.0 / 15},
		},
		{
			// A send 2 s before its delivery is outside the 1 s window,
			// and a send after its delivery is not a cause: nothing
			// correlates, so every candidate ties at zero.
			name: "window matters", n: 4, p: 1, window: sec,
			events: func(*testing.T, []bool) []obs.Event {
				return []obs.Event{
					segSent(0, 1, 3, 1, 0, 0),
					wire(0, 1),
					reconstructed(2*sec, 3, 1),
					segSent(3*sec, 2, 3, 2, 0, 0),
					reconstructed(4*sec, 3, 2),
					wire(5*sec, 2),
				}
			},
			want: Correlation{Deliveries: 2, Top: 0, Ambiguity: 4, Success: 0},
		},
		{
			// An unobserved initiator and an observed node send right
			// before the delivery: only the observed one is a candidate.
			name: "partial coverage", n: 1000, p: 0.3, window: sec,
			events: func(t *testing.T, covered []bool) []obs.Event {
				observed, unob, seen := 0, -1, -1
				for x, ok := range covered {
					switch {
					case ok:
						observed++
						if seen < 0 {
							seen = x
						}
					case unob < 0:
						unob = x
					}
				}
				if observed < 230 || observed > 370 {
					t.Fatalf("observed %d/1000 nodes at coverage 0.3", observed)
				}
				return []obs.Event{
					segSent(0, unob, 999, 1, 0, 0),
					wire(0, unob),
					wire(0, seen),
					reconstructed(100*ms, 999, 1),
				}
			},
			want: Correlation{Deliveries: 1, Top: 1, Ambiguity: 1, Success: 0},
		},
		{
			name: "empty", n: 4, p: 1, window: sec,
			events: func(*testing.T, []bool) []obs.Event { return nil },
			want:   Correlation{Deliveries: 0, Top: 0, Ambiguity: 4, Success: 0},
		},
		{
			// Node ids in a trace are outside input (anontrace report
			// reads one over HTTP): an id outside the coverage set is
			// never a candidate and never an index.
			name: "foreign node ids", n: 4, p: 1, window: sec, exclude: []int{0},
			events: func(*testing.T, []bool) []obs.Event {
				return []obs.Event{
					segSent(0, -7, 0, 1, 0, 0),
					wire(0, -7),
					wire(0, 1<<40),
					wire(0, 2),
					reconstructed(100*ms, 0, 1),
				}
			},
			want: Correlation{Deliveries: 1, Top: 1, Ambiguity: 1, Success: 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			covered, err := Coverage(rand.New(rand.NewSource(5)), tc.n, tc.p)
			if err == nil {
				var ev []obs.Event
				if tc.events != nil {
					ev = tc.events(t, covered)
				}
				res := FromEvents(ev)
				var got Correlation
				got, err = res.Correlate(covered, tc.window, victims(res), tc.exclude...)
				if err == nil && got != tc.want {
					t.Fatalf("got %+v, want %+v", got, tc.want)
				}
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

// TestCorrelateOutOfOrderCapture: a live /debug/trace capture is out of
// time order by microseconds, so the send index is sorted once in
// Finalize. A shuffled trace must give the readout of the ordered one.
func TestCorrelateOutOfOrderCapture(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(11))
	var ev []obs.Event
	for i := int64(0); i < 20; i++ {
		base := i * 10 * sec
		mid := uint64(1 + i)
		ev = append(ev,
			segSent(base, 3, 0, mid, 0, 0),
			sent(base, 3, 4, mid, 0, 0, 0),
			reconstructed(base+500*ms, 0, mid),
		)
		for k := 0; k < 10; k++ {
			ev = append(ev, wire(base+rng.Int63n(10*sec), rng.Intn(n)))
		}
	}
	covered, err := Coverage(rand.New(rand.NewSource(5)), n, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	readout := func(ev []obs.Event) (Correlation, AnonymityMetrics) {
		res := FromEvents(ev)
		c, err := res.Correlate(covered, sec, victims(res), 0)
		if err != nil {
			t.Fatal(err)
		}
		return c, *res.Summary.Anonymity
	}
	wantC, wantA := readout(ev)
	if wantC.Deliveries != 20 || wantC.Top != 1 || wantC.Success == 0 {
		t.Fatalf("ordered trace: %+v; the initiator should top the ranking", wantC)
	}
	shuffled := append([]obs.Event(nil), ev...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	gotC, gotA := readout(shuffled)
	if gotC != wantC {
		t.Fatalf("shuffled trace correlates to %+v, ordered to %+v", gotC, wantC)
	}
	if gotA.Messages != wantA.Messages || gotA.MeanSetSize != wantA.MeanSetSize || gotA.LinkageRate != wantA.LinkageRate {
		t.Fatalf("shuffled trace anonymity %+v, ordered %+v", gotA, wantA)
	}
}

// FuzzAnalyzeTrace feeds arbitrary JSONL through the analyzer and the
// correlation readout: a trace reaches them over HTTP (anontrace report
// <URL>, anonctl smoke), so no event may make them panic. The seed is a
// slice of `anonsim -n 32 -seed 1 -L 2 -k 2 -r 2 -cap 2m -interval 30s
// -trace` (engine events dropped), and the same slice with node ids no
// roster has.
func FuzzAnalyzeTrace(f *testing.F) {
	seed, err := os.ReadFile("testdata/anonsim32.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(bytes.ReplaceAll(bytes.ReplaceAll(seed, []byte(`"node":0,`), []byte(`"node":-7,`)),
		[]byte(`"node":28,`), []byte(`"node":1099511627776,`)))
	covered, err := Coverage(rand.New(rand.NewSource(1)), 32, 0.9)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		events, err := obs.ParseJSONL(bytes.NewReader(b))
		if err != nil {
			return
		}
		a := New()
		for _, e := range events {
			a.Emit(e)
		}
		res := a.Finalize()
		victim := make(map[uint64]bool)
		for _, st := range res.Streams {
			victim[st.MID] = true
		}
		c, err := res.Correlate(covered, 2*sec, victim, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.Deliveries > len(res.Streams) || c.Ambiguity > len(covered) ||
			c.Top < 0 || c.Top > 1 || c.Success < 0 || c.Success > 1 {
			t.Fatalf("readout out of range: %+v over %d streams", c, len(res.Streams))
		}
	})
}
