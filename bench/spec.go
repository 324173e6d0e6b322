package main

// metricSpec names one metric. Bound is the share of the parent's median an
// end-to-end metric may worsen by before a change counts as a regression;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports on every untraced run,
// and the ones BENCHMARK.json bounds. README.md says how each workload
// arrives at each of them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"configured_proto_s", "protocol-s", "lower", 0.25},
	{"goodput_pps", "datagrams/s", "higher", 0.25},
	{"cpu_ns_per_pkt", "ns", "lower", 0.25},
}

// headline are the six end-to-end figures that only some workloads can
// produce, or that the machine moves more than any bound the driver allows
// (the two latencies and the CPU time of a boot). The driver wants every
// bounded metric from every workload, and steady, so BENCHMARK.json lists
// these per layer; the suite prints each with the workloads that measure it
// and its own -check holds it to a bound, set from the run-to-run movement
// seen on the machine this was built on.
var headline = []metricSpec{
	{"boot_cpu_s", "CPU-s", "lower", 0.50},
	{"lat_p50_us", "us", "lower", 0.50},
	{"flowmod_barrier_p50_us", "us", "lower", 0.50},
	{"first_frame_proto_s", "protocol-s", "lower", 0.50},
	{"reroute_outage_proto_ms", "protocol-ms", "lower", 0.50},
	{"failover_outage_proto_s", "protocol-s", "lower", 0.35},
}

// headlineOf names the workloads that measure each headline metric.
var headlineOf = map[string][]string{
	"boot_cpu_s":              {"coldboot-paneu28", "fwd-64B", "fwd-1500B", "churn-4k", "faults-ring8"},
	"lat_p50_us":              {"fwd-64B", "fwd-1500B"},
	"flowmod_barrier_p50_us":  {"churn-4k"},
	"first_frame_proto_s":     {"coldboot-paneu28"},
	"reroute_outage_proto_ms": {"faults-ring8"},
	"failover_outage_proto_s": {"faults-ring8"},
}

// perLayer are the metrics a traced run reports: the six headline figures,
// then one block per layer of the program, measured from outside by the rigs
// in rigs.go and by public read-outs of the running deployment.
var perLayer = append(append([]metricSpec(nil), stripBounds(headline)...), []metricSpec{
	{Name: "pkt.decode_ns_64B", Unit: "ns", Better: "lower"},
	{Name: "pkt.decode_ns_1500B", Unit: "ns", Better: "lower"},
	{Name: "pkt.encode_ns_1500B", Unit: "ns", Better: "lower"},
	{Name: "pkt.encode_allocs", Unit: "count", Better: "lower"},
	{Name: "openflow.extract_key_ns_64B", Unit: "ns", Better: "lower"},
	{Name: "openflow.extract_key_ns_1500B", Unit: "ns", Better: "lower"},
	{Name: "openflow.flowmod_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.flowmod_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.flowmod_decode_allocs", Unit: "count", Better: "lower"},
	{Name: "netemu.cable_ns_per_frame_64B", Unit: "ns", Better: "lower"},
	{Name: "netemu.cable_ns_per_frame_1500B", Unit: "ns", Better: "lower"},
	{Name: "netemu.cable_drops", Unit: "count", Better: "lower"},
	{Name: "netemu.host_send_ns_64B", Unit: "ns", Better: "lower"},
	{Name: "netemu.host_send_ns_1500B", Unit: "ns", Better: "lower"},
	{Name: "netemu.host_send_allocs", Unit: "count", Better: "lower"},
	{Name: "netemu.host_recv_ns_1500B", Unit: "ns", Better: "lower"},
	{Name: "ofswitch.hop_ns_hit_64B", Unit: "ns", Better: "lower"},
	{Name: "ofswitch.hop_ns_hit_1500B", Unit: "ns", Better: "lower"},
	{Name: "ofswitch.hop_ns_miss_256r", Unit: "ns", Better: "lower"},
	{Name: "ofswitch.hop_ns_miss_4096r", Unit: "ns", Better: "lower"},
	{Name: "ofswitch.flowmod_install_us_4096r", Unit: "us", Better: "lower"},
	{Name: "ofswitch.punt_us", Unit: "us", Better: "lower"},
	{Name: "flowvisor.hop_us", Unit: "us", Better: "lower"},
	{Name: "flowvisor.packet_ins", Unit: "count", Better: "lower"},
	{Name: "flowvisor.to_switch", Unit: "count", Better: "lower"},
	{Name: "flowvisor.to_controller", Unit: "count", Better: "lower"},
	{Name: "ctlkit.barrier_rtt_us", Unit: "us", Better: "lower"},
	{Name: "ctlkit.send_ns", Unit: "ns", Better: "lower"},
	{Name: "rpcconf.send_ack_us", Unit: "us", Better: "lower"},
	{Name: "intent.sends", Unit: "count", Better: "lower"},
	{Name: "intent.failures", Unit: "count", Better: "lower"},
	{Name: "intent.resyncs", Unit: "count", Better: "lower"},
	{Name: "intent.drain_ms_100items", Unit: "ms", Better: "lower"},
	{Name: "rf.apply_us_switch_up", Unit: "us", Better: "lower"},
	{Name: "rf.apply_us_link_up", Unit: "us", Better: "lower"},
	{Name: "rf.rpc_applied", Unit: "count", Better: "lower"},
	{Name: "rf.flows_installed", Unit: "count", Better: "lower"},
	{Name: "vnet.boot_to_green_proto_s", Unit: "protocol-s", Better: "lower"},
	{Name: "vnet.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "ospf.spf_us_28", Unit: "us", Better: "lower"},
	{Name: "ospf.spf_runs", Unit: "count", Better: "lower"},
	{Name: "ospf.all_full_proto_s", Unit: "protocol-s", Better: "lower"},
	{Name: "rib.replace_source_us_41", Unit: "us", Better: "lower"},
	{Name: "rib.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "rib.lookup_all_ns", Unit: "ns", Better: "lower"},
	{Name: "discovery.all_links_proto_s", Unit: "protocol-s", Better: "lower"},
	{Name: "cluster.lease_handover_proto_s", Unit: "protocol-s", Better: "lower"},
	{Name: "rf.adopt_to_flows_proto_s", Unit: "protocol-s", Better: "lower"},
	{Name: "stream.lost_reroute", Unit: "count", Better: "lower"},
	{Name: "stream.lost_failover", Unit: "count", Better: "lower"},
	{Name: "process.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "process.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.credit_stalls", Unit: "count", Better: "lower"},
	{Name: "lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "layers.sum_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "layers.coverage_frac", Unit: "ratio", Better: "higher"},
	{Name: "churn.baseline_256r_pps", Unit: "datagrams/s", Better: "higher"},
}...)

func stripBounds(ms []metricSpec) []metricSpec {
	out := append([]metricSpec(nil), ms...)
	for i := range out {
		out[i].Bound = 0
	}
	return out
}

// workloadSpec names one workload and why it is in the set.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
}

var workloads = []workloadSpec{
	{"coldboot-paneu28", "the paper's experiment: cold 28-switch pan-European boot to first video frame; the config walk does the work, the dataplane carries a few hundred frames", runColdboot},
	{"fwd-64B", "smallest frame over 5 fat-tree hops, all cache hits: per-packet cost dominates, byte-proportional work is negligible", runFwd(18)},
	{"fwd-1500B", "same path with 1514 B frames: checksums and copies over the whole payload at every hop and in both host stacks dominate", runFwd(1472)},
	{"churn-4k", "4096 rf-shaped rules, 8192 Zipf microflows and 20 flow-mods/s on two switches: cache misses, the linear scan and whole-cache invalidation do the work", runChurn},
	{"faults-ring8", "link cut then master kill under a numbered stream on an 8-ring with 3 replicas: reroute and failover, which neither forwarding speed nor cold boot predicts", runFaults},
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets one
// run measure. A run also sets up (three deployments or five rigs, or one
// deployment per cycle) and, traced, runs the rigs: 18 to 27 s of wall time
// in all.
const runSeconds = 16
