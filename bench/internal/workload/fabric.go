package workload

import (
	"fmt"

	"netfi/bench/internal/gen"
	"netfi/bench/internal/meter"
	"netfi/internal/campaign"
	"netfi/internal/sim"
	"netfi/internal/topo"
)

func fabricConfig(in *gen.Inputs, shards int) campaign.FabricConfig {
	s := in.Sizes
	return campaign.FabricConfig{
		Topo: topo.Config{
			Switches: s.FabricSwitches, Hosts: s.FabricHosts,
			Shards: shards, Seed: in.TopoSeed,
		},
		Packets: s.FabricPackets,
		Payload: s.FabricPayload,
		Gap:     5 * sim.Microsecond,
		Limit:   10 * sim.Second,
	}
}

func newFabric(in *gen.Inputs, shards int) *campaign.FabricTestbed {
	tb, err := campaign.NewFabricTestbed(fabricConfig(in, shards))
	if err != nil {
		// The sizes are constants of the benchmark; a config error is a bug here.
		panic(fmt.Sprintf("bench: fabric config rejected: %v", err))
	}
	return tb
}

func fabricSetup(in *gen.Inputs, shards int) {
	newFabric(in, shards).Close()
}

// fabricRep floods the Clos fabric on `threads` shard kernels. Only Run is
// timed: construction is setup_s's business.
func fabricRep(in *gen.Inputs, threads int, m *meter.Meter) Outcome {
	var tb *campaign.FabricTestbed
	m.Span("setup", func() {
		m.Span("NewFabricTestbed", func() { tb = newFabric(in, threads) })
	})
	defer tb.Close()

	drained := false
	m.Timed("run", func() { drained = tb.Run() })

	var out Outcome
	m.Span("collect", func() {
		sent, delivered, bytes := tb.Totals()
		g := tb.F.Group
		out = Outcome{
			Ops: delivered, Attempted: sent, Failed: sent - delivered,
			Events: g.Processed(), Symbols: tb.F.TotalChars(),
			Windows: g.Windows(), Exchanged: g.Exchanged(),
		}
		for _, k := range tb.F.Kernels {
			out.ShardEvents = append(out.ShardEvents, k.Processed())
		}
		var sendErrs uint64
		for _, n := range tb.SendErrs {
			sendErrs += n
		}
		if sendErrs > 0 {
			out.Attempted += sendErrs
			out.Failed += sendErrs
			out.Problems = append(out.Problems, fmt.Sprintf("%d sends refused", sendErrs))
		}
		if !drained {
			out.Failed = out.Attempted
			out.Problems = append(out.Problems, "fabric did not drain within the limit")
		}
		if delivered != sent {
			out.Problems = append(out.Problems, fmt.Sprintf("%d of %d packets undelivered", sent-delivered, sent))
		}
		// Partition-independent statistics only: windows and exchange
		// counts depend on the shard count and stay out.
		out.Fingerprint = digest(fmt.Sprintf(
			"fabric sent=%d delivered=%d bytes=%d chars=%d processed=%d now=%d drained=%v",
			sent, delivered, bytes, out.Symbols, out.Events, g.Now(), drained))
	})
	return out
}
