// Mutual anonymity (§3): the paper notes that "responder anonymity and
// mutual anonymity can be easily achieved by extending our design, i.e.,
// using an additional level of redirection." This example builds that
// extension: a hidden service and an anonymous client, each behind its
// own erasure-coded multipath set, glued together by a rendezvous node
// that learns neither identity.
//
//	go run ./examples/hiddenservice
package main

import (
	"fmt"
	"log"

	rm "resilientmix"
)

const (
	client     = rm.NodeID(3)
	service    = rm.NodeID(17)
	rendezvous = rm.NodeID(42)
	serviceTag = uint64(0x5EC2E7)
)

func main() {
	lifetime, err := rm.ParetoLifetime(1, rm.Hour)
	if err != nil {
		log.Fatal(err)
	}
	net, err := rm.NewNetwork(rm.NetworkConfig{
		N:        128,
		Seed:     9,
		Lifetime: lifetime,
		Pinned:   []rm.NodeID{client, service, rendezvous},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := net.StartChurn(); err != nil {
		log.Fatal(err)
	}
	net.Run(rm.Hour) // realistic churn state

	// The rendezvous node runs the glue service. It sees two anonymous
	// path sets and a tag — never who is behind either.
	rz := net.NewRendezvous(rendezvous)

	params := rm.Params{
		Protocol: rm.SimEra, K: 2, R: 2,
		Strategy:             rm.Biased,
		MaxEstablishAttempts: 50,
	}

	// The hidden service builds its own onion paths TO the rendezvous —
	// so the rendezvous cannot see where registrations come from.
	svc, err := net.NewSession(service, rendezvous, params)
	if err != nil {
		log.Fatal(err)
	}
	waitEstablished(net, svc)
	svc.EnableRepair(30 * rm.Second)
	if err := svc.RegisterService(serviceTag); err != nil {
		log.Fatal(err)
	}
	svc.OnInbound = func(conv uint64, data []byte, _ rm.Time) {
		fmt.Printf("hidden service got request %q (conversation %x)\n", data, conv)
		reply := fmt.Sprintf("secret answer to %q", data)
		if err := svc.SendServiceReply(conv, []byte(reply)); err != nil {
			log.Fatal(err)
		}
	}

	// The client likewise hides behind its own path set.
	cli, err := net.NewSession(client, rendezvous, params)
	if err != nil {
		log.Fatal(err)
	}
	waitEstablished(net, cli)
	var answer []byte
	cli.OnInbound = func(conv uint64, data []byte, _ rm.Time) { answer = data }

	net.Run(net.Eng.Now() + 10*rm.Second) // let the registration land

	conv, err := cli.SendServiceMessage(serviceTag, []byte("what is the password?"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client sent request under conversation %x\n", conv)
	net.Run(net.Eng.Now() + rm.Minute)

	if answer == nil {
		log.Fatal("no reply arrived")
	}
	fmt.Printf("client got reply %q\n", answer)
	st := rz.Stats()
	fmt.Printf("\nrendezvous view: %d registrations, %d segments forwarded in, %d out\n",
		st.Registrations, st.SegmentsInbound, st.SegmentsOutbound)
	fmt.Println("the rendezvous never saw either endpoint's address — both sit behind")
	fmt.Println("their own erasure-coded multipath onion sets (mutual anonymity).")
}

func waitEstablished(net *rm.Network, s *rm.Session) {
	if ok, _, err := net.Establish(s); err != nil || !ok {
		log.Fatal("session failed to establish: ", err)
	}
}
