// Command anonnode runs a live (real TCP, real cryptography) onion node
// — the prototype deployment of the paper's protocol outside the
// simulator.
//
// Generate a key pair:
//
//	anonnode -genkey -out node0.key
//
// Write a roster (repeat for each node, then merge by hand or script):
//
//	{"peers": [{"id": 0, "addr": "127.0.0.1:9000", "pub": "<hex>"}, ...]}
//
// Run a relay/responder:
//
//	anonnode -roster roster.json -key node1.key -id 1 -listen 127.0.0.1:9001
//
// Send an anonymous message through relays 1,2,3 to responder 4 and wait
// for the reply:
//
//	anonnode -roster roster.json -key node0.key -id 0 -listen 127.0.0.1:9000 \
//	         -send "hello" -relays 1,2,3 -to 4
//
// With -debug ADDR the node serves its observability surface — five
// endpoints, each with a named reader in DESIGN.md §7's inventory:
// /metrics (Prometheus 0.0.4, including the three runtime.* gauges;
// polled by `anonctl`'s recorder), /readyz (the readiness probe),
// /debug/trace?dur=5s (live NDJSON trace stream consumable by
// anontrace), /debug/pprof/* (CPU, heap, goroutine, mutex, block and
// allocs profiles for `go tool pprof` — recipe in EXPERIMENTS.md) and
// /debug/fault (the chaos controller: per-peer blackholing, injected
// latency and drop, driven by `anonctl chaos`). -collector switches
// the responder role to the erasure-coded session reassembler.
package main

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"resilientmix/internal/livenet"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

func main() {
	var (
		genkey  = flag.Bool("genkey", false, "generate a key pair and exit")
		out     = flag.String("out", "", "output file for -genkey (default stdout)")
		rosterP = flag.String("roster", "", "roster JSON file")
		keyP    = flag.String("key", "", "this node's key file")
		id      = flag.Int("id", -1, "this node's roster id")
		listen  = flag.String("listen", "", "listen address (defaults to the roster entry)")
		send    = flag.String("send", "", "client mode: message to send anonymously")
		relays  = flag.String("relays", "", "client mode: comma-separated relay ids")
		to      = flag.Int("to", -1, "client mode: responder id")
		wait    = flag.Duration("wait", 10*time.Second, "client mode: how long to wait for a reply")
		debug   = flag.String("debug", "", "serve /metrics, /readyz, /debug/trace, /debug/fault and /debug/pprof/ on this address")
		collect = flag.Bool("collector", false, "responder mode: reassemble erasure-coded session traffic instead of echoing")
	)
	flag.Parse()

	if *genkey {
		doGenkey(*out)
		return
	}
	if *rosterP == "" || *keyP == "" || *id < 0 {
		fatal(fmt.Errorf("need -roster, -key and -id (or -genkey)"))
	}

	roster, err := livenet.ReadRoster(*rosterP)
	if err != nil {
		fatal(err)
	}
	priv, err := livenet.ReadKey(*keyP)
	if err != nil {
		fatal(err)
	}
	self := netsim.NodeID(*id)
	addr := *listen
	if addr == "" {
		p, err := roster.Peer(self)
		if err != nil {
			fatal(err)
		}
		addr = p.Addr
	}

	cfg := livenet.Config{
		ID:      self,
		Roster:  roster,
		Private: priv,
	}
	if *collect {
		// Collector mode: the responder half of a LiveSession —
		// reassembles erasure-coded messages and acks each segment.
		coll := livenet.NewLiveCollector(func(mid uint64, data []byte) {
			fmt.Printf("[%s] reconstructed message %016x (%d bytes)\n",
				time.Now().Format(time.TimeOnly), mid, len(data))
		})
		cfg.OnData = coll.Handle
	} else {
		cfg.OnData = func(h livenet.ReplyHandle, data []byte) {
			fmt.Printf("[%s] received %q via relay %d\n", time.Now().Format(time.TimeOnly), data, h.From())
			if err := h.Reply(append([]byte("ack: "), data...)); err != nil {
				fmt.Fprintln(os.Stderr, "reply failed:", err)
			}
		}
	}
	node, err := livenet.Start(addr, cfg)
	if err != nil {
		fatal(err)
	}
	defer node.Close()
	fmt.Printf("node %d up at %s\n", self, node.Addr())

	var debugSrv *http.Server
	if *debug != "" {
		debugSrv = &http.Server{
			Addr:    *debug,
			Handler: debugMux(node),
			// WriteTimeout stays unset: /debug/trace streams for up to its
			// dur parameter and bounds itself.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			IdleTimeout:       60 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "debug endpoint:", err)
			}
		}()
		fmt.Printf("debug endpoint at http://%s/metrics\n", *debug)
	}
	shutdownDebug := func() {
		if debugSrv == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := debugSrv.Shutdown(ctx); err != nil {
			debugSrv.Close()
		}
	}
	defer shutdownDebug()

	if *send == "" {
		// Relay/responder mode: run until interrupted.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		fmt.Println("shutting down")
		return
	}

	// Client mode.
	if *relays == "" || *to < 0 {
		fatal(fmt.Errorf("client mode needs -relays and -to"))
	}
	var relayIDs []netsim.NodeID
	for _, part := range strings.Split(*relays, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad relay id %q: %w", part, err))
		}
		relayIDs = append(relayIDs, netsim.NodeID(v))
	}
	start := time.Now()
	path, err := node.Construct(relayIDs, netsim.NodeID(*to))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("path established through %v in %v\n", relayIDs, time.Since(start).Round(time.Millisecond))
	if err := path.Send([]byte(*send)); err != nil {
		fatal(err)
	}
	select {
	case reply := <-path.Replies():
		fmt.Printf("reply: %q\n", reply)
	case <-time.After(*wait):
		fmt.Println("no reply within", *wait)
		// os.Exit skips defers.
		shutdownDebug()
		node.Close()
		os.Exit(1)
	}
}

// debugEndpoints is the node's whole observability surface: one entry
// per endpoint row of DESIGN.md §7's inventory, which names who reads
// each. An endpoint is mounted here or nowhere (TestDebugMuxInventory).
var debugEndpoints = map[string]func(*livenet.Node) http.Handler{
	"/metrics":      (*livenet.Node).MetricsHandler,
	"/readyz":       (*livenet.Node).ReadyzHandler,
	"/debug/trace":  (*livenet.Node).TraceHandler,
	"/debug/fault":  (*livenet.Node).FaultHandler,
	"/debug/pprof/": func(*livenet.Node) http.Handler { return livenet.PprofHandler() },
}

// debugMux serves debugEndpoints for node.
func debugMux(node *livenet.Node) *http.ServeMux {
	mux := http.NewServeMux()
	for path, handler := range debugEndpoints {
		mux.Handle(path, handler(node))
	}
	return mux
}

func doGenkey(out string) {
	kp, err := onioncrypt.ECIES{}.GenerateKeyPair(rand.Reader)
	if err != nil {
		fatal(err)
	}
	blob := livenet.EncodeKey(kp)
	if out == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(out, blob, 0o600); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "anonnode:", err)
	os.Exit(1)
}
