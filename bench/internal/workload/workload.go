// Package workload defines the benchmark's five fixed workloads. Each is a
// handful of calls into netfi/internal/campaign with inputs from package
// gen; the phases are marked on a meter so the harness can time the run
// apart from construction and collection.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"netfi/bench/internal/gen"
	"netfi/bench/internal/meter"
)

// Outcome is what one repetition produced.
type Outcome struct {
	// Ops counts completed operations; Attempted what was tried; Failed
	// the attempts that did not complete correctly.
	Ops, Attempted, Failed uint64
	// Fingerprint is a SHA-256 over the run's simulated statistics. It
	// must repeat exactly for equal inputs, at any thread count.
	Fingerprint string
	// Records holds one digest per operation where operations are
	// individually comparable (campaign trials); the harness compares
	// them with the one-thread reference pass record by record.
	Records []string
	// Counts read after the run; zero where the program does not expose
	// them.
	Events, Symbols    uint64
	Windows, Exchanged uint64
	ShardEvents        []uint64
	// Problems lists failed checks in words.
	Problems []string
}

// Workload is one registered workload.
type Workload struct {
	Name    string
	Threads int    // OS threads doing simulation work in the timed call
	Op      string // what one operation is
	Why     string // one line: why the workload exists (BENCHMARK.json)
	// Rep runs one repetition at the given thread count: Threads for a
	// measured repetition, 1 for the reference pass of a two-thread
	// workload.
	Rep func(in *gen.Inputs, threads int, m *meter.Meter) Outcome
	// SetupOnce performs one construction of what a repetition runs; the
	// harness times it for setup_s.
	SetupOnce func(in *gen.Inputs)
}

// All lists the workloads in run order. Names are fixed.
var All = []Workload{
	{
		Name: "testbed_stream", Threads: 1, Op: "datagram received intact",
		Why: "Fig. 10 bed at full capacity, 1 KiB datagrams, 64 rules armed on the injector and never firing: per-symbol cost through core, rules, myrinet, phy, host.",
		Rep: streamRep, SetupOnce: streamSetup,
	},
	{
		Name: "fabric_flood", Threads: 1, Op: "packet delivered",
		Why: "128-switch/1024-host Clos, 64 B packets, one shard: switch forwarding, link controllers, slack buffers and kernel with no injector or host stack; per-packet cost.",
		Rep: fabricRep, SetupOnce: func(in *gen.Inputs) { fabricSetup(in, 1) },
	},
	{
		Name: "fabric_sharded", Threads: 2, Op: "packet delivered",
		Why: "The same fabric run on two shard kernels: adds ShardGroup windows, the barrier and the outbox exchange; fingerprint must equal the one-shard run.",
		Rep: fabricRep, SetupOnce: func(in *gen.Inputs) { fabricSetup(in, 2) },
	},
	{
		Name: "campaign_resilience", Threads: 2, Op: "trial run",
		Why: "Rebuild-per-trial campaign at 2 workers: test-bed construction, serial arming, monitor plane, reliable transport, long idle horizons; contended burst-pool locks.",
		Rep: resilienceRep, SetupOnce: resilienceSetup,
	},
	{
		Name: "chaos_sweep", Threads: 2, Op: "fork",
		Why: "Warm-once, clone-per-scenario campaign at 2 workers: allocation-heavy forks; moves opposite to campaign_resilience when clones get dearer and rebuilds cheaper.",
		Rep: chaosRep, SetupOnce: chaosSetup,
	},
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, w := range All {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names lists the workload names in run order.
func Names() []string {
	out := make([]string, len(All))
	for i, w := range All {
		out[i] = w.Name
	}
	return out
}

// digest hashes the lines of a fingerprint.
func digest(lines ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// recordDigest hashes one trial record. Records can carry kilobytes of
// state digest each; keeping only the hash keeps the benchmark's own
// bookkeeping out of peak_rss_mb.
func recordDigest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:16])
}
