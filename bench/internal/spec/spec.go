// Package spec is the benchmark's registry: the names, units, directions
// and bounds of every metric it reports, and the limits those tables must
// stay within. BENCHMARK.json at the repository root mirrors these tables;
// a test keeps the two in agreement.
package spec

import "regexp"

// Limits of the builder's contract.
const (
	MaxWorkloads = 8
	MaxEndToEnd  = 16
	MaxPerLayer  = 128
	MaxNameLen   = 64
	MaxBound     = 0.25
)

// NameRE is the shape of every workload and metric name.
var NameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// UnitRE is the shape of every unit.
var UnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// Better is the direction in which a metric improves.
type Better string

const (
	Higher Better = "higher"
	Lower  Better = "lower"
)

// EndToEnd describes one end-to-end metric. Bound is the share of the
// baseline median by which the metric may worsen before `bench compare`
// (and the PR driver) calls a regression.
type EndToEnd struct {
	Name   string
	Unit   string
	Better Better
	Bound  float64
}

// EndToEndMetrics are defined on every workload, in host time.
//
// The time bounds sit at the contract's ceiling, far above the 5-10 % ISSUE
// 11 hoped for: the 2-vCPU VM the benchmark was calibrated on changes speed
// by 20-40 % over minutes (README, "Why the time bounds are 25 %"), and ten
// runs of one commit spread by 5-25 % between their quartiles. The bound only
// catches gross regressions; smaller ones are decided by paired alternating
// runs. The count metrics repeat to 1e-4 for one seed and spread by at most
// 0.95 % (objects) and 1.24 % (bytes) across seeds, hence 3 % and 4 %; they,
// the exact counts among the per-layer metrics and the fingerprints are what
// resolves small changes on this box.
var EndToEndMetrics = []EndToEnd{
	// operations completed per second of wall time inside the timed call(s)
	{"ops_per_s", "1/s", Higher, 0.25},
	// process user+system CPU (getrusage) inside the timed call(s), per operation
	{"cpu_ns_per_op", "ns", Lower, 0.25},
	// heap objects allocated (MemStats.Mallocs) inside the timed call(s), per operation
	{"allocs_per_op", "count", Lower, 0.03},
	// heap bytes allocated (MemStats.TotalAlloc) inside the timed call(s), per operation
	{"alloc_bytes_per_op", "B", Lower, 0.04},
	// high-water resident set during a repetition (VmHWM restarted per repetition)
	{"peak_rss_mb", "MiB", Lower, 0.15},
	// median cost of constructing what one repetition runs
	{"setup_s", "s", Lower, 0.25},
}

// PerLayer describes one per-layer metric. Moves names the workloads whose
// end-to-end numbers the layer's cost should move — the prediction a later
// change to that layer is held to.
type PerLayer struct {
	Name   string
	Unit   string
	Better Better
	Moves  string
}

// LadderMetrics are measured by timing public calls of one package in
// isolation; they do not depend on the workload of the run that reports
// them.
var LadderMetrics = []PerLayer{
	{"sim.near_event_ns", "ns", Lower, "all workloads: the kernel's floor, schedule one tick ahead and fire"},
	{"sim.ns_per_event", "ns", Lower, "all workloads; most campaign_resilience (sparse timers: wheel levels, cascades, heap)"},
	{"sim.allocs_per_event", "count", Lower, "all workloads (allocs_per_op)"},
	{"sim.timer_reset_ns", "ns", Lower, "campaign_resilience, chaos_sweep; not fabric_*"},
	{"sim.shard_window_ns", "ns", Lower, "fabric_sharded only"},
	{"phy.pool_ns_per_burst", "ns", Lower, "all workloads (about a fifth of testbed_stream)"},
	{"phy.pool_ns_per_burst_2t", "ns", Lower, "campaign_resilience, chaos_sweep"},
	{"phy.link_ns_per_symbol", "ns", Lower, "testbed_stream, fabric_*"},
	{"phy.link_ns_per_burst1", "ns", Lower, "campaign_resilience"},
	{"phy.outbox_ns_per_delivery", "ns", Lower, "fabric_sharded only"},
	{"myrinet.linkctl_ns_per_symbol", "ns", Lower, "testbed_stream, fabric_*"},
	{"myrinet.switch_ns_per_packet_64B", "ns", Lower, "fabric_*"},
	{"myrinet.switch_ns_per_symbol_1024B", "ns", Lower, "testbed_stream"},
	{"myrinet.slack_ns_per_symbol", "ns", Lower, "fabric_*, testbed_stream"},
	{"myrinet.hostif_ns_per_packet", "ns", Lower, "testbed_stream, fabric_flood"},
	{"myrinet.encode_ns_per_packet", "ns", Lower, "testbed_stream, fabric_flood"},
	{"core.passthrough_ns_per_symbol", "ns", Lower, "testbed_stream; not fabric_*"},
	{"core.armed8_ns_per_symbol", "ns", Lower, "testbed_stream; not fabric_*"},
	{"core.armed64_ns_per_symbol", "ns", Lower, "testbed_stream; not fabric_*"},
	{"core.armed64_hitdense_ns_per_symbol", "ns", Lower, "guards the rewind/corrupt/CRC path when the bulk path is optimised"},
	{"core.per_symbol_ns_per_symbol", "ns", Lower, "campaign_resilience, chaos_sweep (tainted and inject-now paths)"},
	{"core.device_ns_per_symbol", "ns", Lower, "testbed_stream"},
	{"core.command_ns_per_line", "ns", Lower, "campaign_resilience"},
	{"serial.console_ns_per_command", "ns", Lower, "campaign_resilience"},
	{"rules.compile64_ms", "ms", Lower, "setup_s on testbed_stream"},
	{"rules.stepbatch_ns_per_symbol", "ns", Lower, "testbed_stream"},
	{"bitstream.crc8_ns_per_byte", "ns", Lower, "fabric_* (per-hop CRC), testbed_stream"},
	{"bitstream.crc32_ns_per_byte", "ns", Lower, "none today (Fibre Channel only)"},
	{"host.udp_ns_per_datagram", "ns", Lower, "testbed_stream"},
	{"host.reliable_ns_per_message", "ns", Lower, "campaign_resilience, chaos_sweep"},
	{"monitor.tap_ns_per_symbol", "ns", Lower, "campaign_resilience, chaos_sweep; not fabric_*, testbed_stream"},
	{"monitor.flow_ns_per_packet", "ns", Lower, "campaign_resilience, chaos_sweep"},
	{"monitor.plane_ns_per_pass", "ns", Lower, "campaign_resilience, chaos_sweep"},
	{"topo.build_ms", "ms", Lower, "setup_s and peak_rss_mb on fabric_flood"},
	{"topo.build_allocs", "count", Lower, "setup_s and peak_rss_mb on fabric_flood"},
	{"topo.build2_ms", "ms", Lower, "setup_s and peak_rss_mb on fabric_sharded"},
	{"topo.build2_allocs", "count", Lower, "setup_s and peak_rss_mb on fabric_sharded"},
	{"campaign.testbed_build_us", "us", Lower, "campaign_resilience; setup_s on the test-bed workloads"},
	{"campaign.runtrials_overhead_ns", "ns", Lower, "campaign_resilience, chaos_sweep (negligible unless it grows)"},
	{"campaign.chaos_rebuild_ops_per_s", "1/s", Higher, "the fork-vs-rebuild advantage behind chaos_sweep"},
}

// WorkloadMetrics come from the traced run of one workload: counts read
// after the run, runtime accounting around the timed call(s), the
// single-thread reference pass, and the span recorder. A metric that has
// no meaning on a workload reads 0 there (fabric.* off the fabric,
// event/symbol counts on the campaigns, the reference pair on one-thread
// workloads reads the workload itself).
var WorkloadMetrics = []PerLayer{
	{"workload.ref_ops_per_s", "1/s", Higher, "the one-thread reference pass: serial cost under a two-thread headline"},
	{"workload.speedup_vs_ref", "ratio", Higher, "two-thread median over the reference: <1 on campaign_resilience, about 1 on fabric_sharded today"},
	{"workload.events", "count", Lower, "kernel events executed in one repetition; repeats exactly"},
	{"workload.symbols", "count", Lower, "link characters carried in one repetition; repeats exactly"},
	{"workload.ns_per_event", "ns", Lower, "the common unit: timed wall per kernel event"},
	{"workload.ns_per_symbol", "ns", Lower, "the common unit: timed wall per link character"},
	{"fabric.windows", "count", Lower, "fabric_sharded: coordinator windows; repeats exactly"},
	{"fabric.exchanged", "count", Lower, "fabric_sharded: deliveries that crossed a barrier; repeats exactly"},
	{"fabric.shard_imbalance", "ratio", Lower, "fabric_sharded: busiest shard's events over the mean"},
	{"runtime.gc_cpu_share", "ratio", Lower, "chaos_sweep, fabric_*"},
	{"runtime.gc_cycles", "count", Lower, "chaos_sweep, fabric_*"},
	{"runtime.mutex_wait_share", "ratio", Lower, "the two-worker campaigns (phy burst-pool mutexes)"},
	{"trace.overhead_share", "ratio", Lower, "traced wall over untraced median, minus one; on this box its noise floor is several percent"},
	{"trace.recorder_ms", "ms", Lower, "time spent inside the span recorder per traced repetition: the overhead that can be resolved"},
	{"span.setup_self_ms", "ms", Lower, "setup span minus its children"},
	{"span.setup_build_ms", "ms", Lower, "NewFabricTestbed / NewTestbed inside setup"},
	{"span.setup_compile_ms", "ms", Lower, "rules.Compile inside setup (testbed_stream)"},
	{"span.arm_ms", "ms", Lower, "installing rule programs and starting the load (testbed_stream)"},
	{"span.run_ms", "ms", Lower, "the single Run / RunFor / RunResilience / RunChaos call"},
	{"span.drain_ms", "ms", Lower, "stopping the load and draining (testbed_stream)"},
	{"span.collect_ms", "ms", Lower, "reading statistics and fingerprinting after the run"},
}

// PerLayerMetrics is every per-layer metric a traced run reports, in
// report order.
func PerLayerMetrics() []PerLayer {
	return append(append([]PerLayer(nil), LadderMetrics...), WorkloadMetrics...)
}

// EndToEndByName finds an end-to-end metric.
func EndToEndByName(name string) (EndToEnd, bool) {
	for _, m := range EndToEndMetrics {
		if m.Name == name {
			return m, true
		}
	}
	return EndToEnd{}, false
}
