package ladder

import (
	"runtime"
	"time"

	"netfi/bench/internal/gen"
	"netfi/internal/campaign"
	"netfi/internal/host"
	"netfi/internal/monitor"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
	"netfi/internal/topo"
)

const ladderPort = 7300

func hostRungs(budget time.Duration, _ *gen.Inputs, out map[string]float64) {
	// A bare two-node bed: no injector, static routes.
	tb := campaign.NewTestbed(campaign.TestbedConfig{Seed: 1, Nodes: 2, NoInjector: true})
	received := 0
	if _, err := tb.Nodes[1].Bind(ladderPort, func(myrinet.MAC, uint16, []byte) { received++ }); err != nil {
		panic(err) // the port is free on a fresh bed
	}
	payload := make([]byte, 1024)
	sent := 0
	out["host.udp_ns_per_datagram"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			tb.Nodes[0].SendUDP(campaign.NodeMAC(1), ladderPort, ladderPort, payload)
			tb.K.Run()
		}
		sent += n
	})
	if received != sent {
		panic("ladder: UDP datagrams lost on an idle bed")
	}

	rb := campaign.NewTestbed(campaign.TestbedConfig{Seed: 1, Nodes: 2, NoInjector: true})
	var ends [2]*host.Reliable
	for i := range ends {
		r, err := host.NewReliable(rb.Nodes[i], ladderPort, host.ReliableConfig{})
		if err != nil {
			panic(err)
		}
		ends[i] = r
	}
	msg := make([]byte, 20)
	out["host.reliable_ns_per_message"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			ends[0].Send(campaign.NodeMAC(1), msg)
			rb.K.Run()
		}
	})
	if s := ends[0].Stats(); s.Delivered != s.Sent || s.Retransmits != 0 {
		panic("ladder: reliable transport retried on an idle bed: " + s.String())
	}
}

// tapBurst is eight complete 100-byte data packets over six address pairs,
// as a switch-port tap observes them (the burst of BenchmarkMonitorTap).
func tapBurst() []phy.Character {
	var chars []phy.Character
	for p := 0; p < 8; p++ {
		dst, src := campaign.NodeMAC(p%3), campaign.NodeMAC((p+1)%3)
		raw := []byte{myrinet.SwitchHop(2), myrinet.RouteFinal, 0, 0, 0, byte(myrinet.TypeData)}
		raw = append(raw, dst[:]...)
		raw = append(raw, src[:]...)
		for i := 0; i < 100; i++ {
			raw = append(raw, 0x55)
		}
		raw = append(raw, 0xAB)
		chars = append(chars, phy.DataChars(raw)...)
		chars = append(chars, myrinet.GapChar())
	}
	return chars
}

func monitorRungs(budget time.Duration, _ *gen.Inputs, out map[string]float64) {
	k := sim.NewKernel(1)
	tap := monitor.NewPlane(k, monitor.Config{}).NewTap("ladder", monitor.TapOptions{Flows: true, Detect: true})
	burst := tapBurst()
	now := sim.Time(0)
	out["monitor.tap_ns_per_symbol"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			now += sim.Time(sim.Microsecond)
			tap.ObserveChars(now, burst)
		}
	}) / float64(len(burst))

	// Full flow-cache life cycle: open, aggregate, idle-expire into the
	// export ring, drain.
	ring := monitor.NewExportRing(1024)
	ft := monitor.NewFlowTable("ladder", ring, sim.Millisecond)
	var key monitor.FlowKey
	at, seq := sim.Time(0), 0
	out["monitor.flow_ns_per_packet"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			key.Src[0], key.Src[1] = byte(seq), byte(seq>>8)
			at += sim.Time(10 * sim.Microsecond)
			ft.Observe(key, 64, at)
			if seq&63 == 63 {
				at += sim.Time(2 * sim.Millisecond)
				ft.ExpireIdle(at)
				for {
					if _, ok := ring.Pop(); !ok {
						break
					}
				}
			}
		}
	})

	// One sampling tick of a plane armed the way a resilience trial arms
	// it (flow taps on the switch inputs, detector taps on two nodes,
	// loss, recovery and wedge probes), on an idle bed.
	tb := campaign.NewTestbed(campaign.TestbedConfig{Seed: 1})
	plane := monitor.NewPlane(tb.K, monitor.Config{SampleInterval: sim.Millisecond, FlowIdle: 25 * sim.Millisecond})
	for p := 0; p < tb.Switch.Ports(); p++ {
		if tb.Switch.Attached(p) {
			plane.TapSwitchPort(tb.Switch, p, monitor.TapOptions{Flows: true})
		}
	}
	for _, n := range tb.Nodes[1:] {
		plane.TapInterface(n.Interface(), monitor.TapOptions{Detect: true})
	}
	drops := func() uint64 {
		var n uint64
		for p := 0; p < tb.Switch.Ports(); p++ {
			n += tb.Switch.PortCounters(p).TotalDrops()
		}
		for _, nd := range tb.Nodes {
			n += nd.Interface().Counters().TotalDrops()
		}
		return n
	}
	plane.AddLossProbe("net.drops", drops)
	plane.AddCounterProbe("net.recovery", "recovery", drops)
	plane.AddWedgeProbe("sw0.held", tb.Switch.HeldOutputs)
	plane.Start()
	var ticks uint64
	var spent time.Duration
	perOp(budget, func(n int) {
		t0, k0 := time.Now(), plane.Ticks()
		tb.K.RunFor(sim.Duration(n) * sim.Millisecond)
		spent += time.Since(t0)
		ticks += plane.Ticks() - k0
	})
	plane.Stop()
	out["monitor.plane_ns_per_pass"] = float64(spent.Nanoseconds()) / float64(ticks)
}

func topoRungs(budget time.Duration, in *gen.Inputs, out map[string]float64) {
	for _, v := range []struct {
		shards     int
		ms, allocs string
	}{
		{1, "topo.build_ms", "topo.build_allocs"},
		{2, "topo.build2_ms", "topo.build2_allocs"},
	} {
		cfg := topo.Config{
			Switches: in.Sizes.FabricSwitches, Hosts: in.Sizes.FabricHosts,
			Shards: v.shards, Seed: 1,
		}
		build := func(n int) {
			for i := 0; i < n; i++ {
				f, err := topo.Build(cfg)
				if err != nil {
					panic(err) // the sizes are constants of the benchmark
				}
				f.Close()
			}
		}
		out[v.ms] = perOp(budget, build) / 1e6
		runtime.GC()
		out[v.allocs] = allocsPerOp(1, build)
	}
}

func campaignRungs(budget time.Duration, in *gen.Inputs, out map[string]float64) {
	out["campaign.testbed_build_us"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			campaign.NewTestbed(campaign.TestbedConfig{Seed: 1})
		}
	}) / 1e3

	// The worker pool around trials that do nothing, at two workers.
	out["campaign.runtrials_overhead_ns"] = perOp(budget, func(n int) {
		campaign.RunTrials(n, 2, func(i int) int { return i })
	})

	// The chaos plans run on rebuilt worlds instead of forks: what every
	// fork would cost without the snapshot engine.
	forks := in.Sizes.RebuildForks
	t0 := time.Now()
	res := campaign.RunChaos(campaign.ChaosOptions{Seed: 1, Forks: forks, MaxK: 2, Workers: 1, Rebuild: true})
	out["campaign.chaos_rebuild_ops_per_s"] = float64(len(res.Trials)) / time.Since(t0).Seconds()
}
