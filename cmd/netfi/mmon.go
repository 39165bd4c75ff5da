package main

import (
	"fmt"
	"io"

	"netfi/internal/campaign"
	"netfi/internal/monitor"
	"netfi/internal/netmap"
	"netfi/internal/sim"
)

// mmonInterval is mmon's sampling period in simulated time.
const mmonInterval = 500 * sim.Millisecond

// mmon is the Myrinet monitoring program of §4.2: it runs a Fig. 10 test bed
// under load for 2 s × -scale of simulated time, every mmonInterval printing
// the mapper's network map, every node's routing table, and the link/port
// counters — "the status of the network and the associated information
// (like routing tables and control registers) were monitored with the
// Myrinet monitoring program mmon". -corrupt corrupts the tapped node's
// identity toward the mapper mid-run (Fig. 11 live); -live arms the
// monitoring plane alongside the counter dumps. It returns 1 when a
// corrupted payload was accepted.
func mmon(o expOpts, out, errOut io.Writer) int {
	tb := campaign.NewTestbed(campaign.TestbedConfig{
		Seed:      o.Seed,
		Mapping:   true,
		MapPeriod: 200 * sim.Millisecond,
	})
	load := tb.StartLoad(campaign.LoadConfig{})
	mapper := tb.Nodes[len(tb.Nodes)-1].Interface().MCP()
	total := sim.Duration(2 * o.Scale * float64(sim.Second))

	// -live arms the monitoring plane over the same test bed: flow export
	// on every attached switch input, an accrual detector on every host's
	// arriving stream (the continuous load is the heartbeat), and the
	// standard loss probe.
	var mon *monitor.Plane
	var hostTaps []*monitor.Tap
	printedEvents := 0
	if o.live {
		// The load is bursty (12.5 ms periods), so the arrival cadence at
		// each host is bimodal: raise the phi threshold above the level
		// the inter-burst silences reach, or every period would flap the
		// detectors.
		mon = monitor.NewPlane(tb.K, monitor.Config{
			Phi: monitor.PhiConfig{Threshold: 2},
		})
		for p := 0; p < tb.Switch.Ports(); p++ {
			if tb.Switch.Attached(p) {
				mon.TapSwitchPort(tb.Switch, p, monitor.TapOptions{Flows: true})
			}
		}
		for _, n := range tb.Nodes {
			hostTaps = append(hostTaps, mon.TapInterface(n.Interface(),
				monitor.TapOptions{Detect: true}))
		}
		mon.AddLossProbe("net.drops", tb.Drops)
		mon.SetStopAt(total)
		mon.Start()
	}
	if o.corrupt {
		tb.K.After(total/2, func() {
			m := campaign.NodeMAC(0)
			c := campaign.NodeMAC(len(tb.Nodes) - 1)
			tb.Console.Send(fmt.Sprintf("COMPARE %02X %02X %02X 00", m[3], m[4], m[5]))
			tb.Console.Send(fmt.Sprintf("CORRUPT REPLACE -- -- %02X --", c[5]))
			tb.Console.Send("CRC ON")
			tb.Console.Send("MODE ON")
		})
	}
	for at := mmonInterval; at <= total; at += mmonInterval {
		tb.K.RunUntil(at)
		fmt.Fprintf(out, "---- t=%v ----\n", tb.K.Now())
		fmt.Fprint(out, netmap.Render(mapper.LastSnapshot()))
		for i, n := range tb.Nodes {
			fmt.Fprintf(out, "node%d  routes=%d  %v  host={udp tx=%d rx=%d}\n",
				i, len(n.Interface().Routes()), n.Interface().Counters(),
				n.Stats().UDPSent, n.Stats().UDPReceived)
		}
		for p := 0; p < tb.Switch.Ports(); p++ {
			if tb.Switch.Attached(p) {
				fmt.Fprintf(out, "sw.p%d  %v\n", p, tb.Switch.PortCounters(p))
			}
		}
		if mon != nil {
			fmt.Fprintf(out, "plane ")
			for _, tp := range hostTaps {
				fmt.Fprintf(out, " %s phi=%.2f", tp.Name(), tp.Detector().Phi(tb.K.Now()))
			}
			active := 0
			for _, tp := range mon.Taps() {
				if tp.Flows() != nil {
					active += tp.Flows().Active()
				}
			}
			fmt.Fprintf(out, "  flows active=%d exported=%d\n", active, mon.Ring().Exported())
			for ; printedEvents < len(mon.Events()); printedEvents++ {
				fmt.Fprintf(out, "plane  event %v\n", mon.Events()[printedEvents])
			}
		}
		fmt.Fprintln(out)
	}
	load.Stop()
	if mon != nil {
		mon.Stop()
		fmt.Fprintf(out, "plane: %d sampling passes, %d events, %d flows exported\n",
			mon.Ticks(), len(mon.Events()), mon.Ring().Exported())
	}
	rounds, inconsistent := mapper.Rounds()
	fmt.Fprintf(out, "mapping rounds: %d (%d inconsistent)\n", rounds, inconsistent)
	if load.CorruptAccepted() > 0 {
		fmt.Fprintf(errOut, "netfi mmon: ACTIVE fault evidence: %d corrupted payloads accepted\n", load.CorruptAccepted())
		return 1
	}
	return 0
}
