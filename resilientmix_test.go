package resilientmix_test

import (
	"bytes"
	"math"
	"testing"

	rm "resilientmix"
)

// TestPublicAPIEndToEnd drives the whole system through the public
// facade only: build a network, establish a SimEra session with biased
// mix choice under churn, deliver a message, get a response.
func TestPublicAPIEndToEnd(t *testing.T) {
	life, err := rm.ParetoLifetime(1, rm.Hour)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rm.NewNetwork(rm.NetworkConfig{
		N:        64,
		Seed:     7,
		Lifetime: life,
		Pinned:   []rm.NodeID{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.StartChurn(); err != nil {
		t.Fatal(err)
	}
	net.Run(50 * rm.Minute) // churn warm-up past the Pareto minimum

	sess, err := net.NewSession(0, 1, rm.Params{
		Protocol:             rm.SimEra,
		K:                    4,
		R:                    2,
		Strategy:             rm.Biased,
		MaxEstablishAttempts: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok bool
	sess.OnEstablished = func(o bool, _ int) { ok = o }
	sess.Establish()
	net.Run(net.Eng.Now() + rm.Minute)
	if !ok {
		t.Fatal("session did not establish")
	}

	var delivered []byte
	net.Receivers[1].SetOnDelivered(func(mid uint64, data []byte, _ rm.Time) {
		delivered = bytes.Clone(data) // data is the receiver's once the call returns
		net.Receivers[1].Respond(mid, []byte("pong"), nil)
	})
	var response []byte
	sess.OnResponse = func(_ uint64, data []byte, _ rm.Time) { response = data }

	if _, err := sess.SendMessage([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	net.Run(net.Eng.Now() + rm.Minute)
	if string(delivered) != "ping" || string(response) != "pong" {
		t.Fatalf("delivered=%q response=%q", delivered, response)
	}
}

func TestPublicErasure(t *testing.T) {
	code, err := rm.NewErasureCode(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("public api erasure coding")
	segs, err := code.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := code.Reconstruct([]rm.ErasureSegment{segs[5], segs[1], segs[3]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("reconstruction failed")
	}
}

func TestPublicAnalytics(t *testing.T) {
	p := rm.PathSuccessProbability(0.95, 3)
	pk, err := rm.DeliveryProbability(8, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if pk <= 0 || pk > 1 {
		t.Fatalf("P(k) = %g", pk)
	}
	if rm.AllocationRegime(p, 2) != 1 {
		t.Fatalf("regime = %v, want Observation 1", rm.AllocationRegime(p, 2))
	}
	anon, err := rm.InitiatorAnonymity(1024, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if anon <= 1.0/1024 || anon >= 1 {
		t.Fatalf("anonymity bound %g out of range", anon)
	}
}

func TestPublicPredictor(t *testing.T) {
	info := rm.LivenessInfo{AliveFor: 2 * rm.Hour, Since: 0, LastHeard: rm.Hour}
	q := rm.LivenessPredictor(info, rm.Hour)
	if q != 1 {
		t.Fatalf("q = %g", q)
	}
	p := rm.AliveProbability(0.5, 1)
	if math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("p = %g", p)
	}
}

func TestPublicLifetimeConstructors(t *testing.T) {
	pareto, err := rm.ParetoLifetime(1, rm.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pareto.Median()-3600) > 1e-6 {
		t.Fatalf("Pareto median %g", pareto.Median())
	}
	exp, err := rm.ExponentialLifetime(rm.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Mean() != 3600 {
		t.Fatalf("exp mean %g", exp.Mean())
	}
	uni, err := rm.UniformLifetime(6*rm.Minute, 114*rm.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Mean() != 3600 {
		t.Fatalf("uniform mean %g", uni.Mean())
	}
	if _, err := rm.ParetoLifetime(1, 0); err == nil {
		t.Fatal("zero median accepted")
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	ids := rm.ExperimentIDs()
	if len(ids) != 21 {
		t.Fatalf("%d experiments", len(ids))
	}
	// Run the cheapest one through the facade.
	res, err := rm.RunExperiment("fig1", rm.ExperimentOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rm.RenderExperiments(&buf, []*rm.ExperimentResult{res}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("nothing rendered")
	}
}

func TestPublicCoverTraffic(t *testing.T) {
	net, err := rm.NewNetwork(rm.NetworkConfig{N: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := net.NewCoverAgent(5, rm.CoverConfig{Interval: 30 * rm.Second})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	net.Run(5 * rm.Minute)
	if agent.Stats().MessagesSent == 0 {
		t.Fatal("cover agent idle")
	}
}
