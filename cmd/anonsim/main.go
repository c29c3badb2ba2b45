// Command anonsim runs a single configurable simulation of the
// anonymizing network and reports the session-level outcome: setup
// attempts, path durability, delivery latency and bandwidth. It is the
// free-form counterpart to anonbench's fixed paper experiments, and runs
// the same procedure: its defaults are one Table 2 SimEra(4,4) biased
// sample, and -seed 115445238 is that cell's sample 0 at anonbench
// -seed 1.
//
// Usage:
//
//	anonsim -n 1024 -protocol simera -k 4 -r 4 -choice biased -median 1h
//	anonsim -protocol curmix -choice random -seed 3 -dist exponential
//
// -trace writes the run's JSONL event trace, -report its JSON run
// report, -analyze prints the offline trace analytics. All three are
// functions of the seed: equal seeds give byte-identical files and
// stdout, which this package's tests pin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	rm "resilientmix"

	"resilientmix/internal/experiments"
	"resilientmix/internal/faultinject"
	"resilientmix/internal/netsim"
	"resilientmix/internal/shardworld"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: the outcome goes to stdout, errors to
// stderr, and the return value is the exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("anonsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 1024, "number of nodes")
		seed     = fs.Int64("seed", 1, "random seed")
		protoStr = fs.String("protocol", "simera", "protocol: curmix, simrep, simera")
		k        = fs.Int("k", 4, "number of disjoint paths")
		r        = fs.Int("r", 4, "replication factor")
		l        = fs.Int("L", 3, "relays per path")
		choice   = fs.String("choice", "biased", "mix choice: random, biased")
		distStr  = fs.String("dist", "pareto", "lifetime distribution: pareto, exponential, uniform")
		median   = fs.Duration("median", time.Hour, "median (pareto) / mean (exponential/uniform) node lifetime")
		capDur   = fs.Duration("cap", time.Hour, "durability cap")
		interval = fs.Duration("interval", 10*time.Second, "message interval")
		msgSize  = fs.Int("msg", 1024, "message size in bytes")
		member   = fs.String("membership", "oracle", "membership mode: oracle, gossip, onehop")
		loss     = fs.Float64("loss", 0, "random per-message link loss probability [0,1]")
		predict  = fs.Bool("predict", false, "enable proactive path replacement (§4.5 prediction)")
		repair   = fs.Bool("repair", false, "enable §4.5 self-repair (probes + path reconstruction)")
		faultsP  = fs.String("faults", "", "JSONL fault schedule (see internal/faultinject) replayed against the simulated network; times are relative to session establishment")
		faultsO  = fs.String("faults-out", "", "write the applied-fault trace (JSONL) to this file")
		traceP   = fs.String("trace", "", "write a JSONL event trace to this file (gzip when it ends in .gz)")
		reportP  = fs.String("report", "", "write a JSON run report to this file")
		analyzeF = fs.Bool("analyze", false, "run offline trace analytics over the run (causal reconstruction, latency attribution, anonymity) and print the summary")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file")
		shards   = fs.Int("shards", 0, "run the multi-core sharded message-plane simulation (churn + background traffic, no protocol sessions) with this many parallel shards; 0 = classic full-protocol single-engine simulation, 1 = sharded code path on one goroutine. The trace is byte-identical for every shard count. Honors -n, -seed, -dist, -median, -loss, -interval, -msg, -cap, -trace, -report")
	)
	fs.Parse(args)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "anonsim:", err)
		return 1
	}

	// Echo every flag that shapes the run into the report's config
	// block, but not where its artifacts go: the report is a function of
	// seed and configuration, so equal-seed runs write equal files.
	cfgMap := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) {
		switch f.Name {
		case "trace", "report", "faults-out", "cpuprofile", "memprofile":
		default:
			cfgMap[f.Name] = f.Value.String()
		}
	})

	var protocol rm.Protocol
	switch strings.ToLower(*protoStr) {
	case "curmix":
		protocol = rm.CurMix
	case "simrep":
		protocol = rm.SimRep
	case "simera":
		protocol = rm.SimEra
	default:
		return fail(fmt.Errorf("unknown protocol %q", *protoStr))
	}
	var strategy rm.Strategy
	switch strings.ToLower(*choice) {
	case "random":
		strategy = rm.Random
	case "biased":
		strategy = rm.Biased
	default:
		return fail(fmt.Errorf("unknown mix choice %q", *choice))
	}
	med := rm.Time(median.Microseconds())
	var lifetime rm.LifetimeDist
	var err error
	switch strings.ToLower(*distStr) {
	case "pareto":
		lifetime, err = rm.ParetoLifetime(1, med)
	case "exponential":
		lifetime, err = rm.ExponentialLifetime(med)
	case "uniform":
		lifetime, err = rm.UniformLifetime(med/10, med*19/10)
	default:
		err = fmt.Errorf("unknown distribution %q", *distStr)
	}
	if err != nil {
		return fail(err)
	}

	var mode rm.MembershipMode
	switch strings.ToLower(*member) {
	case "oracle":
		mode = rm.OracleMembership
	case "gossip":
		mode = rm.GossipMembership
	case "onehop":
		mode = rm.OneHopMembership
	default:
		return fail(fmt.Errorf("unknown membership mode %q", *member))
	}
	// Inputs are read before anything is simulated or created: a bad
	// schedule fails here, not after an hour of simulated warm-up.
	var sched faultinject.Schedule
	if *faultsP != "" {
		if sched, err = faultinject.LoadSchedule(*faultsP, *n); err != nil {
			return fail(err)
		}
	}

	// Every artifact the run writes is opened here and finished through
	// this one deferred path, on every exit below: a trace left open is a
	// truncated gzip stream, a CPU profile never stopped an empty file.
	finish := func(end func() error) {
		if err := end(); err != nil && code == 0 {
			code = fail(err)
		}
	}
	stopProf, err := rm.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer finish(stopProf)
	var tr rm.Tracer
	if *traceP != "" {
		traceFile, err := rm.CreateTraceFile(*traceP)
		if err != nil {
			return fail(err)
		}
		defer finish(traceFile.Close)
		tr = traceFile
	}
	var faultsOut io.Writer
	if *faultsP != "" && *faultsO != "" {
		f, err := os.Create(*faultsO)
		if err != nil {
			return fail(err)
		}
		defer finish(f.Close)
		faultsOut = f
	}

	if *shards > 0 {
		err := runSharded(stdout, shardedRun{
			n: *n, shards: *shards, seed: *seed, lifetime: lifetime,
			loss: *loss, interval: *interval, horizon: *capDur,
			msgSize: *msgSize, tracer: tr, reportPath: *reportP, cfg: cfgMap,
		})
		if err != nil {
			return fail(err)
		}
		return 0
	}

	var collector *rm.TraceCollector
	if *analyzeF {
		collector = rm.NewTraceCollector()
		tr = rm.MultiTracer(tr, collector)
	}
	net, err := rm.NewNetwork(rm.NetworkConfig{
		N:          *n,
		Seed:       *seed,
		Lifetime:   lifetime,
		Pinned:     []rm.NodeID{0, 1},
		Membership: mode,
		LossRate:   *loss,
		Tracer:     tr,
	})
	if err != nil {
		return fail(err)
	}

	// report prints the trace analytics and writes the run report: the
	// end of every run that got as far as an outcome.
	report := func(outcome map[string]float64) error {
		if collector != nil {
			s := rm.AnalyzeTrace(collector.Events()).Summary
			fmt.Fprintf(stdout, "\ntrace analytics: %d messages (%d delivered), %d journeys, %d integrity errors\n",
				s.Messages, s.Delivered, s.Journeys, s.IntegrityErrors)
			if l := s.Latency; l != nil {
				fmt.Fprintf(stdout, "  e2e latency p50 %.1fms p99 %.1fms = propagation %.1fms + queueing %.1fms + retry %.1fms (means)\n",
					l.P50Ms, l.P99Ms, l.MeanPropagationMs, l.MeanQueueingMs, l.MeanRetryMs)
			}
			if a := s.Anonymity; a != nil {
				fmt.Fprintf(stdout, "  anonymity set mean %.1f (min %d), entropy %.2f bits, linkage %.1f%%\n",
					a.MeanSetSize, a.MinSetSize, a.MeanEntropyBits, a.LinkageRate*100)
			}
		}
		if *reportP == "" {
			return nil
		}
		snap := net.Reg.Snapshot()
		rep := &rm.RunReport{
			Name:           "anonsim",
			Seed:           *seed,
			Config:         cfgMap,
			VirtualSeconds: net.Eng.Now().Seconds(),
			EventsExecuted: net.Eng.Executed(),
			Outcome:        outcome,
			Drops:          net.Reg.CountersWithPrefix("net.dropped."),
			Metrics:        &snap,
		}
		return rep.WriteJSONFile(*reportP)
	}
	if err := net.StartChurn(); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "network: %d nodes, %s lifetimes (%v median), %s membership, %.1f%% loss\n",
		*n, *distStr, *median, *member, *loss*100)

	// Warm up one hour so node ages and churn reach a realistic state.
	net.Run(rm.Hour)

	sess, err := net.NewSession(0, 1, rm.Params{
		Protocol:             protocol,
		K:                    *k,
		R:                    *r,
		L:                    *l,
		Strategy:             strategy,
		MaxEstablishAttempts: 500,
	})
	if err != nil {
		return fail(err)
	}
	established, attempts, err := net.Establish(sess)
	if err != nil {
		return fail(err)
	}
	if !established {
		fmt.Fprintf(stdout, "establishment FAILED after %d attempts\n", attempts)
		if err := report(map[string]float64{"established": 0, "attempts": float64(attempts)}); err != nil {
			return fail(err)
		}
		return 1
	}
	fmt.Fprintf(stdout, "established %s k=%d r=%d (%s choice) after %d attempt(s), %d live paths\n",
		protocol, sess.Params().K, sess.Params().R, strategy, attempts, sess.AlivePaths())
	if *predict {
		sess.EnablePrediction(0.5, 30*rm.Second)
		fmt.Fprintln(stdout, "proactive path replacement enabled (threshold q < 0.5)")
	}
	if *repair {
		sess.EnableRepair(30 * rm.Second)
		fmt.Fprintln(stdout, "self-repair enabled (30s probes, automatic path reconstruction)")
	}
	var faultRec *faultinject.Recorder
	if *faultsP != "" {
		// Schedule times are relative: shift them past warm-up and
		// establishment so the faults land during the message loop.
		offset := int64(net.Eng.Now() / rm.Millisecond)
		shifted := make(faultinject.Schedule, len(sched))
		for i, e := range sched {
			e.AtMS += offset
			shifted[i] = e
		}
		faultRec = faultinject.NewRecorder(faultsOut)
		applied, err := faultinject.ApplySim(net.Eng, net.Net, shifted, faultRec)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "fault schedule: %d events (%d applications with reverts) from %s\n",
			len(sched), applied, *faultsP)
	}

	// Message loop until the set dies or the cap elapses: the same
	// procedure, and so the same numbers, as one Table 2 sample.
	durability, delivered, latencyMS, kbPerMsg := experiments.MeasureDurability(net, sess, 1,
		rm.Time(capDur.Microseconds()), rm.Time(interval.Microseconds()), *msgSize)
	st := sess.Stats()
	fmt.Fprintf(stdout, "\nresults over %d messages:\n", st.MessagesSent)
	fmt.Fprintf(stdout, "  durability       %.0f s%s\n", durability, capNote(sess.SetDeadAt()))
	fmt.Fprintf(stdout, "  delivered        %d/%d\n", delivered, st.MessagesSent)
	if delivered > 0 {
		fmt.Fprintf(stdout, "  mean latency     %.0f ms\n", latencyMS)
	}
	if st.MessagesSent > 0 {
		fmt.Fprintf(stdout, "  bandwidth        %.1f KB/message\n", kbPerMsg)
	}
	fmt.Fprintf(stdout, "  construction     %.1f KB total, %d paths died, %d replaced\n",
		float64(st.ConstructFlow.Bytes)/1024, st.PathsDied, st.PathsReplaced)

	outcome := map[string]float64{
		"established":    1,
		"attempts":       float64(attempts),
		"durability_s":   durability,
		"messages_sent":  float64(st.MessagesSent),
		"delivered":      float64(delivered),
		"paths_died":     float64(st.PathsDied),
		"paths_replaced": float64(st.PathsReplaced),
	}
	if delivered > 0 {
		outcome["mean_latency_ms"] = latencyMS
	}
	if faultRec != nil {
		outcome["faults_applied"] = float64(faultRec.Count())
		fmt.Fprintf(stdout, "  faults applied   %d (trace sha256 %.16s…)\n", faultRec.Count(), faultRec.Sum())
	}
	if err := report(outcome); err != nil {
		return fail(err)
	}
	return 0
}

// shardedRun carries the flag subset the sharded message-plane mode
// honors.
type shardedRun struct {
	n, shards  int
	seed       int64
	lifetime   rm.LifetimeDist
	loss       float64
	interval   time.Duration
	horizon    time.Duration
	msgSize    int
	tracer     rm.Tracer
	reportPath string
	cfg        map[string]string
}

// runSharded executes the sharded world: K parallel shards over the
// same churned, traffic-generating network, with a trace stream that
// is byte-identical for every K.
func runSharded(stdout io.Writer, a shardedRun) error {
	w, err := shardworld.New(shardworld.Config{
		Nodes:           a.n,
		Shards:          a.shards,
		Seed:            a.seed,
		LossRate:        a.loss,
		Lifetime:        a.lifetime,
		Pinned:          []netsim.NodeID{0, 1},
		TrafficInterval: rm.Time(a.interval.Microseconds()),
		MsgSize:         a.msgSize,
		Tracer:          a.tracer,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sharded network: %d nodes over %d shard(s), lookahead %v\n",
		a.n, a.shards, w.Lookahead)
	horizon := rm.Time(a.horizon.Microseconds())
	w.Run(horizon)
	fmt.Fprintln(stdout, w.Summary())

	if a.reportPath == "" {
		return nil
	}
	st := w.Net.Stats()
	rep := &rm.RunReport{
		Name:           "anonsim-sharded",
		Seed:           a.seed,
		Config:         a.cfg,
		VirtualSeconds: horizon.Seconds(),
		EventsExecuted: w.Cluster.Executed(),
		Outcome: map[string]float64{
			"shards":            float64(a.shards),
			"lookahead_us":      float64(w.Lookahead),
			"sent":              float64(st.Sent),
			"delivered":         float64(st.Delivered),
			"dropped_sender":    float64(st.DroppedSender),
			"dropped_receiver":  float64(st.DroppedReceiver),
			"dropped_loss":      float64(st.DroppedLoss),
			"bytes":             float64(st.Bytes),
			"churn_transitions": float64(w.Churn.Transitions()),
			"up_nodes":          float64(w.Net.UpCount()),
		},
	}
	return rep.WriteJSONFile(a.reportPath)
}

func capNote(deadAt rm.Time) string {
	if deadAt == 0 {
		return " (capped: path set survived)"
	}
	return ""
}
