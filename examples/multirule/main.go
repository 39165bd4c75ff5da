// Three concurrent trigger rules in a single stream pass — the capability
// the single-pattern register file of the original injector cannot express.
// One serial configuration arms:
//
//   - rule 1, a control-symbol toggle: flips one bit of a GAP. The paper's
//     robust decoding forgives single faults on GO and STOP, but GAP has no
//     tolerated degraded form, so the toggled symbol decodes as unknown and
//     the packet boundary vanishes (§4.3.1). MODE AFTER:3 aims it at the
//     fourth GAP, truncating the last packet of the run.
//   - rule 2, a route-byte replace: rewrites the first packet's source-route
//     byte from port 1 to port 2, misrouting it. The CRC-8 is left stale, so
//     the wrong destination discards it (§4.3.3's failure mode, reached
//     through the route instead of the MAC).
//   - rule 3, a capture-only watch: matches the workload's UDP port pair and
//     four wildcards, landing the trigger exactly on the UDP checksum byte —
//     observation without perturbation (§4.3.4's view of the stream).
//
// Four UDP packets later, the per-rule match/fire counters tell the story.
package main

import (
	"fmt"

	"netfi/internal/campaign"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

func main() {
	tb := campaign.NewTestbed(campaign.TestbedConfig{Seed: 42})

	// Count deliveries at the intended destination (node1) and at the
	// misroute victim (node2).
	var gotNode1, gotNode2 int
	const srcPort, dstPort = 9000, 9001 // 0x23 0x28 / 0x23 0x29 on the wire
	if _, err := tb.Nodes[1].Bind(dstPort, func(myrinet.MAC, uint16, []byte) { gotNode1++ }); err != nil {
		panic(err)
	}
	if _, err := tb.Nodes[2].Bind(dstPort, func(myrinet.MAC, uint16, []byte) { gotNode2++ }); err != nil {
		panic(err)
	}

	cmds := []string{
		"DIR L",
		"RULE ADD 1 MODE AFTER:3 ACT TOGGLE PAT C0C VEC 01",
		"RULE ADD 2 MODE ONCE ACT REPLACE PAT 81 VEC 82",
		"RULE ADD 3 ACT CAP PAT 23 28 23 29 -- -- -- --",
	}
	// Configure waits for every answer; insist each ADD was accepted
	// before traffic.
	if err := tb.Configure(cmds...); err != nil {
		panic(err)
	}

	crcBefore := tb.Nodes[2].Interface().Counters().Drops[myrinet.DropCRC]
	for i := 1; i <= 4; i++ {
		tb.TapNode().SendUDP(campaign.NodeMAC(1), srcPort, dstPort,
			[]byte(fmt.Sprintf("rule engine demo %d", i)))
	}
	tb.K.RunFor(20 * sim.Millisecond)

	eng := tb.Injector.Engine(campaign.DirOutbound)
	st := eng.RuleProgram().Stats()
	fmt.Printf("rule set: %d rules compiled to %s (%d DFA states)\n",
		st.Rules, st.Mode, st.DFAStates)
	names := map[int]string{
		1: "GAP bit-toggle   (AFTER:3)",
		2: "route replace    (ONCE)   ",
		3: "UDP cksum watch  (CAP)    ",
	}
	for _, r := range eng.Rules() {
		m, f, _ := eng.RuleCounters(r.ID)
		fmt.Printf("rule %d %s matches=%d fires=%d\n", r.ID, names[r.ID], m, f)
	}
	crcDrops := tb.Nodes[2].Interface().Counters().Drops[myrinet.DropCRC] - crcBefore
	fmt.Printf("sent 4 packets to node1: delivered node1=%d node2=%d; node2 CRC drops=%d\n",
		gotNode1, gotNode2, crcDrops)
	fmt.Println("packet 1 misrouted and CRC-dropped, packet 4 lost its GAP; 2 and 3 arrived")

	fmt.Println("\nfull campaign: go run ./cmd/netfi multirule")
}
