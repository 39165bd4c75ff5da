// Package gen turns the benchmark seed into the inputs the program is
// handed: simulation seeds, the injector's rule set, and the workload
// sizes. Nothing else in the benchmark draws randomness, and the program
// never sees the benchmark seed itself — only what is generated here.
package gen

import (
	"netfi/internal/rules"
	"netfi/internal/sim"
)

// Sizes fixes how much simulated work one repetition of each workload does.
// They are the same on every commit; only Full and Quick exist.
type Sizes struct {
	FabricSwitches int
	FabricHosts    int
	FabricPackets  int // per host
	FabricPayload  int
	StreamRun      sim.Duration
	StreamDrain    sim.Duration
	Trials         int // resilience trials; each runs armed twice (recovery on, off)
	Forks          int // chaos forks
	RebuildForks   int // ladder: chaos scenarios on rebuilt worlds
}

// Full is the measured size: the sizes ISSUE 11 profiled (256 packets/host,
// 200 ms of streaming, 24 trials, 3000 forks) scaled by the common factor
// 0.5 so that a run of at least five repetitions fits the per-run time cap.
func Full() Sizes {
	return Sizes{
		FabricSwitches: 128, FabricHosts: 1024, FabricPackets: 128, FabricPayload: 64,
		StreamRun: 100 * sim.Millisecond, StreamDrain: 5 * sim.Millisecond,
		Trials: 12, Forks: 1500, RebuildForks: 30,
	}
}

// Quick is about 1/30 of Full, for the harness self-test.
func Quick() Sizes {
	return Sizes{
		FabricSwitches: 128, FabricHosts: 1024, FabricPackets: 4, FabricPayload: 64,
		StreamRun: 3 * sim.Millisecond, StreamDrain: 5 * sim.Millisecond,
		Trials: 1, Forks: 50, RebuildForks: 2,
	}
}

// RuleCount is the size of the armed rule set testbed_stream installs.
const RuleCount = 64

// Inputs is everything a workload receives.
type Inputs struct {
	Sizes Sizes

	TopoSeed       int64 // topo.Config.Seed: fabric layout hashing and flood destinations
	TestbedSeed    int64 // campaign.TestbedConfig.Seed for testbed_stream
	ResilienceSeed int64 // campaign.ResilienceOptions.Seed, drawn from resiliencePool
	ChaosSeed      int64 // campaign.ChaosOptions.Seed

	// Rules is the 64-rule set armed on both injector engines. Every rule
	// is a two-step data-byte pair whose first byte lies in 0x90..0xFF.
	// On the Fig. 10 bed's traffic (route and type bytes, MACs 06:60:8c:
	// 40:40:1x, UDP ports 9000/9001, tag "NFTA", sequence nibbles
	// 0x40..0x4F, fill 0x55) such a byte occurs only as a UDP checksum
	// low byte followed by 'N' or as the trailing CRC-8 followed by the
	// GAP control symbol; neither pair can complete a rule whose second
	// byte is not 'N', so the rules stay armed and never fire. The
	// workload asserts that on every repetition.
	Rules []rules.Rule
}

// mix is splitmix64 over (seed, stream): independent sub-seeds from one
// benchmark seed.
func mix(seed int64, stream uint64) uint64 {
	h := uint64(seed) + stream*0x9e3779b97f4a7c15
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// subSeed returns a positive 31-bit seed, short enough to read in a report.
func subSeed(seed int64, stream uint64) int64 {
	return int64(mix(seed, stream)>>33) + 1
}

// resiliencePool holds the campaign seeds campaign_resilience draws from.
// A resilience trial that wedges the network runs to the 300 ms stall
// horizon and costs as much host time as a dozen healthy ones, and whether a
// randomized fault wedges it is a coin the campaign seed tosses: of 60
// consecutive seeds at 12 trials, 39 wedge exactly the two gap-drop-tail
// trials (≈1.0 s per pass), 17 wedge a third (≈1.5 s) and 4 a fourth
// (≈2.0 s). Drawing the seed freely would make ops_per_s a three-valued
// function of the benchmark seed — a spread of up to 40 % that says nothing
// about the program. The pool is sixteen seeds of the first class, so inputs
// still differ from seed to seed while a repetition's simulated work does
// not. The working seed 42 and the held-out seed 7 therefore draw from the
// same sixteen campaigns: seed 7 holds out the topology, rule set, test-bed
// and chaos inputs, not a resilience plan no seed has seen. A test runs every
// entry and checks its class (two hung, two reset-recovered trials in the
// 12-trial plan); a model change that moves an entry out of the class fails
// that test, and the entry is replaced in the PR that changes the model.
var resiliencePool = [16]int64{
	1003, 1004, 1005, 1008, 1009, 1010, 1012, 1014,
	1017, 1019, 1020, 1022, 1026, 1027, 1028, 1030,
}

// New derives the inputs for one benchmark seed.
func New(seed int64, sizes Sizes) *Inputs {
	return &Inputs{
		Sizes:          sizes,
		TopoSeed:       subSeed(seed, 1),
		TestbedSeed:    subSeed(seed, 2),
		ResilienceSeed: resiliencePool[mix(seed, 3)%uint64(len(resiliencePool))],
		ChaosSeed:      subSeed(seed, 4),
		Rules:          RuleSet(seed),
	}
}

// RuleSet generates the armed-but-silent rule set for seed: RuleCount
// distinct (first, second) data-byte pairs, first in 0x90..0xFF, second
// anything but 'N'.
func RuleSet(seed int64) []rules.Rule {
	rs := make([]rules.Rule, 0, RuleCount)
	used := make(map[[2]byte]bool, RuleCount)
	for draw := uint64(0); len(rs) < RuleCount; draw++ {
		h := mix(seed, 0x100+draw)
		pair := [2]byte{0x90 + byte(h%0x70), byte(h >> 8)}
		if pair[1] == 'N' || used[pair] {
			continue
		}
		used[pair] = true
		rs = append(rs, rules.Rule{
			ID:     len(rs) + 1,
			Mode:   rules.ModeOn,
			Action: rules.ActionToggle,
			Steps: []rules.Step{
				{Sym: 0x100 | uint16(pair[0]), Mask: rules.SymbolMask},
				{Sym: 0x100 | uint16(pair[1]), Mask: rules.SymbolMask},
			},
			CorruptData: []uint16{0, 0x01},
		})
	}
	return rs
}
