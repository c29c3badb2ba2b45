// Quickstart: build a small anonymizing network, establish an
// erasure-coded multipath session (SimEra) with biased mix choice, send
// an anonymous message, and receive a reply over the reverse paths.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	rm "resilientmix"
)

func main() {
	// A 64-node network with the paper's churn model (Pareto sessions,
	// median one hour). Nodes 0 and 1 — our two endpoints — are pinned
	// so the demo's endpoints don't churn away mid-conversation.
	lifetime, err := rm.ParetoLifetime(1, rm.Hour)
	if err != nil {
		log.Fatal(err)
	}
	net, err := rm.NewNetwork(rm.NetworkConfig{
		N:        64,
		Seed:     42,
		Lifetime: lifetime,
		Pinned:   []rm.NodeID{0, 1},
		Suite:    rm.SuiteECIES, // real X25519 + AES-GCM onions
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := net.StartChurn(); err != nil {
		log.Fatal(err)
	}
	// Let the network churn for a while so node ages diverge — that is
	// what the biased mix choice feeds on.
	net.Run(50 * rm.Minute)
	fmt.Printf("network up: %d/%d nodes alive after warm-up\n", net.Net.UpCount(), net.Net.Size())

	// Node 0 talks to node 1 over k=4 disjoint onion paths carrying
	// erasure-coded segments with replication factor r=2: any 2 of the
	// 4 paths suffice, so up to 2 path failures are masked.
	sess, err := net.NewSession(0, 1, rm.Params{
		Protocol:             rm.SimEra,
		K:                    4,
		R:                    2,
		Strategy:             rm.Biased,
		MaxEstablishAttempts: 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	ok, attempts, err := net.Establish(sess)
	if err != nil || !ok {
		log.Fatal("could not establish the path set: ", err)
	}
	fmt.Printf("path set established after %d attempt(s)\n", attempts)

	// The responder application: print what arrives and reply.
	net.Receivers[1].SetOnDelivered(func(mid uint64, data []byte, at rm.Time) {
		fmt.Printf("responder got %q at t=%v\n", data, at)
		if _, err := net.Receivers[1].Respond(mid, []byte("hello, anonymous friend"), nil); err != nil {
			log.Fatal(err)
		}
	})
	sess.OnResponse = func(_ uint64, data []byte, at rm.Time) {
		fmt.Printf("initiator got reply %q at t=%v\n", data, at)
	}

	sent := net.Eng.Now()
	if _, err := sess.SendMessage([]byte("hi from node 0 (but you cannot tell)")); err != nil {
		log.Fatal(err)
	}
	net.Run(net.Eng.Now() + rm.Minute)

	st := sess.Stats()
	fmt.Printf("\nround trip complete in %v virtual time\n", net.Eng.Now()-sent)
	fmt.Printf("segments sent=%d acked=%d, payload bandwidth=%.1f KB, construction=%.1f KB\n",
		st.SegmentsSent, st.SegmentsAcked, st.DataFlow.KB(), st.ConstructFlow.KB())
}
