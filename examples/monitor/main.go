// The monitoring plane, end to end: phi-accrual failure detection, NetFlow
// export, and online anomaly triage over a live failure.
//
// The walkthrough first shows the accrual detector alone — heartbeats at a
// steady cadence, then silence: phi climbs continuously (no binary timeout
// cliff) and crosses the suspicion threshold a few missed beats in. Then it
// runs the full scripted scenario: a reliable workload plus heartbeat
// beacons under flow-export taps, a mid-run GAP deletion that wedges a
// switch output (§4.3.1's forever-held path), and the plane's event log —
// wedge anomaly, phi suspicion, watchdog recovery, and the flow records
// that bracket the outage.
package main

import (
	"fmt"

	"netfi/internal/campaign"
	"netfi/internal/monitor"
	"netfi/internal/sim"
)

func main() {
	// Part 1: the detector alone. 30 heartbeats on a mixed 2/4 ms cadence,
	// then silence: suspicion accrues through the levels the observed
	// cadence justifies instead of falling off a single timeout cliff.
	fmt.Println("phi accrual on a mixed 2/4 ms heartbeat, then silence:")
	d := monitor.NewPhiDetector(monitor.PhiConfig{})
	var last sim.Time
	for i := 0; i <= 30; i++ {
		step := 2 * sim.Millisecond
		if i%2 == 0 {
			step = 4 * sim.Millisecond
		}
		last += sim.Time(step)
		d.Heartbeat(last)
	}
	for _, after := range []sim.Duration{
		sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond,
		4 * sim.Millisecond, 6 * sim.Millisecond, 10 * sim.Millisecond,
	} {
		now := last + sim.Time(after)
		mark := ""
		if d.Suspect(now) {
			mark = "  <- suspect"
		}
		fmt.Printf("  %4.0f ms after last beat: phi=%.2f%s\n",
			after.Seconds()*1000, d.Phi(now), mark)
	}

	// Part 2: the full plane over a scripted failure.
	fmt.Println("\nscripted outage (tail GAP drop wedges the path to node 1):")
	res := campaign.RunMonitor(campaign.SectionOptions{Seed: 1})
	fmt.Print(campaign.FormatMonitor(res))

	fmt.Println("\nfull campaign with per-trial detection: go run ./cmd/netfi resilience")
	fmt.Println("machine-readable output:                 go run ./cmd/netfi -json monitor")
}
