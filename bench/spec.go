package main

// metricDef names one metric the benchmark prints and its unit. The two
// tables below are the code's side of BENCHMARK.json; the tests check
// that both agree.
type metricDef struct {
	name, unit string
}

// endToEnd are printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"msgs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"allocs_per_msg", "count"},
	{"alloc_kb_per_msg", "KB"},
	{"wire_bytes_per_payload_byte", "ratio"},
	{"delivered_share", "ratio"},
}

// perLayer are printed by every traced run. A row that does not apply to
// the workload of the run (a livenet span on sim_paper, a repair timing
// without faults) reads 0.
var perLayer = []metricDef{
	// Microbench rows: timed calls into the layer's public functions at
	// the workloads' sizes; the same on every workload.
	{"gf256.muladd_slice_4k.mbps", "MB/s"},
	{"erasure.split_1k_m1n2.us", "us"},
	{"erasure.split_1k_m2n4.us", "us"},
	{"erasure.split_256k_m2n4.us", "us"},
	{"erasure.split_256k_m2n4.allocs", "count"},
	{"erasure.reconstruct_256k_m2n4.us", "us"},
	{"onioncrypt.seal.us", "us"},
	{"onioncrypt.open.us", "us"},
	{"onioncrypt.sym_seal_1k.us", "us"},
	{"onioncrypt.sym_seal_1k.allocs", "count"},
	{"onioncrypt.sym_open_1k.us", "us"},
	{"onioncrypt.sym_seal_128k.us", "us"},
	{"onioncrypt.sym_open_128k.us", "us"},
	{"onion.build_construct_l2.us", "us"},
	{"onion.parse_construct_layer.us", "us"},
	{"onion.build_payload_l2_1k.us", "us"},
	{"onion.build_payload_l2_128k.us", "us"},
	{"wire.segment_roundtrip.ns", "ns"},
	{"host.tcp_frame_1k.us", "us"},
	{"host.tcp_frame_128k.us", "us"},
	{"livenet.construct_l2.us", "us"},
	{"livenet.path_roundtrip_1k.us", "us"},
	{"livenet.path_roundtrip_128k.us", "us"},
	{"sim.engine.events_per_s", "1/s"},
	{"sim.engine.schedule.allocs", "count"},
	{"sim.shard.k1.events_per_s", "1/s"},
	{"sim.shard.k2.events_per_s", "1/s"},
	{"netsim.send_deliver.ns", "ns"},
	{"mixchoice.select_paths_k4l3_n1024.us", "us"},
	// In-run rows: harness spans and counts of the workload itself.
	{"livenet.session.establish_ms", "ms"},
	{"livenet.session.first_msg_ms", "ms"},
	{"livenet.session.send_call_us", "us"},
	{"livenet.session.forward_ms", "ms"},
	{"livenet.session.ack_return_ms", "ms"},
	{"livenet.session.latency_p50_all_ms", "ms"},
	{"livenet.session.latency_p99_ms", "ms"},
	{"livenet.tcp_conns_per_msg", "count"},
	{"livenet.frames_per_msg", "count"},
	{"livenet.send_errors", "count"},
	{"livenet.repair.recovery_p50_ms", "ms"},
	{"livenet.repair.detect_ms", "ms"},
	{"livenet.repair.rebuild_ms", "ms"},
	{"livenet.repair.probes_per_s", "1/s"},
	{"livenet.repair.retransmits", "count"},
	{"load.generator_late_p99_ms", "ms"},
	{"load.on_time_share", "ratio"},
	{"core.world_build_ms", "ms"},
	{"core.session.establish_us", "us"},
	{"core.session.send_message_us", "us"},
	{"core.events_per_msg", "count"},
	{"core.paths_replaced", "count"},
	{"core.latency_p99_ms", "ms"},
	{"sim.events_per_s", "1/s"},
	{"runtime.cpu_us_per_msg", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"obs.trace_overhead_share", "ratio"},
	{"decomp.explained_share", "ratio"},
	{"decomp.path_roundtrip_share", "ratio"},
}

var workloadNames = []string{"live_small", "live_bulk", "live_repair", "sim_paper"}
