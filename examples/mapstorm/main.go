// Mapstorm reproduces Fig. 11 live: the injector rewrites one node's
// identity in its scout replies to the controller's own address. The
// controller, "confused by the appearance of what it believes is another
// controller", fails every mapping attempt differently — the faulty map is
// not static.
package main

import (
	"fmt"

	"netfi/internal/campaign"
	"netfi/internal/myrinet"
	"netfi/internal/netmap"
	"netfi/internal/sim"
)

func main() {
	const mapPeriod = 200 * sim.Millisecond
	tb := campaign.NewTestbed(campaign.TestbedConfig{
		Seed:      5,
		Mapping:   true,
		MapPeriod: mapPeriod,
	})
	mapper := tb.Nodes[len(tb.Nodes)-1].Interface().MCP()
	before := mapper.LastSnapshot()
	fmt.Println("-- network before corruption (Fig. 11 left) --")
	fmt.Print(netmap.Render(before))

	// Rewrite the tapped node's MAC tail (in its outbound scout replies)
	// to the controller's, with the CRC-8 recomputed so the corrupted
	// reply still parses.
	victim := campaign.NodeMAC(0)
	ctrl := campaign.NodeMAC(len(tb.Nodes) - 1)
	if err := tb.Configure(
		"DIR L",
		fmt.Sprintf("COMPARE %02X %02X %02X 00", victim[3], victim[4], victim[5]),
		fmt.Sprintf("CORRUPT REPLACE -- -- %02X --", ctrl[5]),
		"CRC ON",
		"MODE ON",
	); err != nil {
		panic(err)
	}

	var last *myrinet.Snapshot
	for round := 0; round < 5; round++ {
		tb.K.RunFor(mapPeriod)
		s := mapper.LastSnapshot()
		if s == last {
			continue
		}
		last = s
		fmt.Printf("\n-- mapping attempt (round %d) --\n", s.Round)
		fmt.Print(netmap.Render(s))
	}

	fmt.Println("\n-- diff, first vs last (Fig. 11 before/after) --")
	fmt.Print(netmap.Diff(before, last))
	total, inconsistent := mapper.Rounds()
	fmt.Printf("\nmapping rounds: %d, inconsistent: %d\n", total, inconsistent)
}
