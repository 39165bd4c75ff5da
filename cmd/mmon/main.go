// Command mmon is the Myrinet monitoring program of §4.2: it runs a
// simulated Fig. 10 test bed under load, periodically sampling the mapper's
// network map, every node's routing table, and the link/port counters —
// "the status of the network and the associated information (like routing
// tables and control registers) were monitored with the Myrinet monitoring
// program mmon".
//
// Flags:
//
//	-seed N      simulation seed (default 1)
//	-duration D  simulated observation time in seconds (default 2)
//	-interval D  sampling interval in milliseconds (default 500)
//	-corrupt     corrupt the tapped node's identity toward the controller
//	             mid-run, reproducing Fig. 11 live
//	-live        arm the monitoring plane: per-sample phi values, live flow
//	             counts, and anomaly events alongside the counter dumps
package main

import (
	"flag"
	"fmt"
	"os"

	"netfi/internal/campaign"
	"netfi/internal/monitor"
	"netfi/internal/netmap"
	"netfi/internal/sim"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	duration := flag.Float64("duration", 2, "observation time, simulated seconds")
	interval := flag.Float64("interval", 500, "sampling interval, simulated milliseconds")
	corrupt := flag.Bool("corrupt", false, "corrupt the tapped node's identity to the controller's mid-run")
	live := flag.Bool("live", false, "arm the monitoring plane (phi values, flows, anomalies)")
	flag.Parse()

	tb := campaign.NewTestbed(campaign.TestbedConfig{
		Seed:      *seed,
		Mapping:   true,
		MapPeriod: 200 * sim.Millisecond,
	})
	load := tb.StartLoad(campaign.LoadConfig{})
	mapper := tb.Nodes[len(tb.Nodes)-1].Interface().MCP()

	total := sim.Duration(*duration * float64(sim.Second))
	step := sim.Duration(*interval * float64(sim.Millisecond))

	// -live arms the monitoring plane over the same test bed: flow export
	// on every attached switch input, an accrual detector on every host's
	// arriving stream (the continuous load is the heartbeat), and the
	// standard loss probe.
	var mon *monitor.Plane
	var hostTaps []*monitor.Tap
	printedEvents := 0
	if *live {
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
		mon.AddLossProbe("net.drops", func() uint64 {
			var d uint64
			for p := 0; p < tb.Switch.Ports(); p++ {
				d += tb.Switch.PortCounters(p).TotalDrops()
			}
			for _, n := range tb.Nodes {
				d += n.Interface().Counters().TotalDrops()
			}
			return d
		})
		mon.SetStopAt(sim.Time(total))
		mon.Start()
	}
	if *corrupt {
		tb.K.After(total/2, func() {
			m := campaign.NodeMAC(0)
			c := campaign.NodeMAC(len(tb.Nodes) - 1)
			tb.Console.Send(fmt.Sprintf("COMPARE %02X %02X %02X 00", m[3], m[4], m[5]))
			tb.Console.Send(fmt.Sprintf("CORRUPT REPLACE -- -- %02X --", c[5]))
			tb.Console.Send("CRC ON")
			tb.Console.Send("MODE ON")
		})
	}
	for at := step; at <= total; at += step {
		tb.K.RunUntil(at)
		fmt.Printf("---- t=%v ----\n", tb.K.Now())
		fmt.Print(netmap.Render(mapper.LastSnapshot()))
		for i, n := range tb.Nodes {
			fmt.Printf("node%d  routes=%d  %v  host={udp tx=%d rx=%d}\n",
				i, len(n.Interface().Routes()), n.Interface().Counters(),
				n.Stats().UDPSent, n.Stats().UDPReceived)
		}
		for p := 0; p < tb.Switch.Ports(); p++ {
			if !tb.Switch.Attached(p) {
				continue
			}
			fmt.Printf("sw.p%d  %v\n", p, tb.Switch.PortCounters(p))
		}
		if mon != nil {
			fmt.Printf("plane ")
			for _, tp := range hostTaps {
				fmt.Printf(" %s phi=%.2f", tp.Name(), tp.Detector().Phi(tb.K.Now()))
			}
			active := 0
			for _, tp := range mon.Taps() {
				if tp.Flows() != nil {
					active += tp.Flows().Active()
				}
			}
			fmt.Printf("  flows active=%d exported=%d\n", active, mon.Ring().Exported())
			for ; printedEvents < len(mon.Events()); printedEvents++ {
				fmt.Printf("plane  event %v\n", mon.Events()[printedEvents])
			}
		}
		fmt.Println()
	}
	load.Stop()
	if mon != nil {
		mon.Stop()
		fmt.Printf("plane: %d sampling passes, %d events, %d flows exported\n",
			mon.Ticks(), len(mon.Events()), mon.Ring().Exported())
	}
	total64, inconsistent := mapper.Rounds()
	fmt.Printf("mapping rounds: %d (%d inconsistent)\n", total64, inconsistent)
	if load.CorruptAccepted() > 0 {
		fmt.Fprintf(os.Stderr, "mmon: ACTIVE fault evidence: %d corrupted payloads accepted\n", load.CorruptAccepted())
		os.Exit(1)
	}
}
