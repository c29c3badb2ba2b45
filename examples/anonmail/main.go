// Anonymous e-mail: the long-standing-session workload that motivates
// path durability in the paper's introduction — "short-lived paths
// cannot support ... anonymous email systems in which the reply email
// may fail to route back to the sender due to path failures."
//
// A sender submits mail to a mailbox node over a SimEra path set and
// stays online; the mailbox delivers the reply minutes later over the
// same (still standing) reverse paths. We run the scenario twice — with
// random and with biased mix choice — and show that under churn the
// biased path set is far more likely to still be alive when the reply
// comes back. Proactive failure prediction (§4.5) keeps the set
// repaired between mails.
//
//	go run ./examples/anonmail
package main

import (
	"bytes"
	"fmt"
	"log"

	rm "resilientmix"
)

const (
	sender  = rm.NodeID(0)
	mailbox = rm.NodeID(1)
	// The mailbox takes this long to produce a reply (the correspondent
	// reads and answers).
	replyDelay = 10 * rm.Minute
	mails      = 5
)

func main() {
	for _, strategy := range []rm.Strategy{rm.Random, rm.Biased} {
		delivered, replied := runScenario(strategy)
		fmt.Printf("%-6v mix choice: %d/%d mails delivered, %d/%d replies returned\n",
			strategy, delivered, mails, replied, mails)
	}
}

func runScenario(strategy rm.Strategy) (delivered, replied int) {
	lifetime, err := rm.ParetoLifetime(1, rm.Hour)
	if err != nil {
		log.Fatal(err)
	}
	net, err := rm.NewNetwork(rm.NetworkConfig{
		N:        256,
		Seed:     7,
		Lifetime: lifetime,
		Pinned:   []rm.NodeID{sender, mailbox},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := net.StartChurn(); err != nil {
		log.Fatal(err)
	}
	net.Run(rm.Hour) // realistic churn state

	sess, err := net.NewSession(sender, mailbox, rm.Params{
		Protocol:             rm.SimEra,
		K:                    4,
		R:                    2,
		Strategy:             strategy,
		MaxEstablishAttempts: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	sess.Establish()
	net.Run(net.Eng.Now() + 2*rm.Minute)
	if !sess.Established() {
		return 0, 0
	}
	// §4.5 failure handling: probe every path each minute and rebuild
	// failed ones, so the set survives the long gaps between mails.
	sess.EnableRepair(rm.Minute)

	// Mailbox: acknowledge receipt, then deliver the reply later over
	// the cached reverse paths. The mail is copied: data is valid only
	// during the callback.
	net.Receivers[mailbox].SetOnDelivered(func(mid uint64, data []byte, _ rm.Time) {
		delivered++
		data = bytes.Clone(data)
		net.Eng.Schedule(replyDelay, func() {
			reply := append([]byte("Re: "), data...)
			if _, err := net.Receivers[mailbox].Respond(mid, reply, nil); err == nil {
				// Respond sent at least the coded segments; whether they
				// arrive depends on the reverse paths surviving.
			}
		})
	})
	sess.OnResponse = func(_ uint64, data []byte, _ rm.Time) { replied++ }

	// Send one mail every 15 minutes.
	for i := 0; i < mails; i++ {
		mail := fmt.Sprintf("mail #%d: meet at the usual place", i+1)
		if _, err := sess.SendMessage([]byte(mail)); err == nil {
			// queued
		}
		net.Run(net.Eng.Now() + 15*rm.Minute)
	}
	// Allow the final reply to come back.
	net.Run(net.Eng.Now() + replyDelay + rm.Minute)
	return delivered, replied
}
