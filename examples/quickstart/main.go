// Quickstart: splice the fault injector into a live Myrinet cable,
// program it over its serial console to replace the 16-bit pattern 0x1818
// with 0x1918 (the paper's §3.3 typical injection scenario), send traffic,
// and read back the injection statistics and capture buffer.
package main

import (
	"fmt"

	"netfi/internal/campaign"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

func main() {
	// A Fig. 10 test bed: three hosts, an 8-port switch, the injector
	// spliced into node 0's cable, everything deterministic under seed 1.
	tb := campaign.NewTestbed(campaign.TestbedConfig{Seed: 1})

	// Program the injector over the simulated RS-232 console. Matching
	// is masked per window position: two don't-cares, then 0x18 0x18.
	if err := tb.Configure(
		"DIR R", // corrupt data flowing toward node 0
		"COMPARE -- -- 18 18",
		"CORRUPT REPLACE -- -- 19 --",
		"CRC ON", // recompute the Myrinet CRC-8 so only the payload is wrong
		"MODE ONCE",
	); err != nil {
		panic(err)
	}
	fmt.Println("injector configured over serial:", tb.Console.Responses())

	// Deliver a datagram containing the victim pattern to node 0.
	var got []byte
	if _, err := tb.Nodes[0].Bind(9001, func(_ myrinet.MAC, _ uint16, data []byte) {
		got = append([]byte(nil), data...)
	}); err != nil {
		panic(err)
	}
	// Enough trailing bytes that the capture ring's post-trigger quota
	// (16 characters) fills before the stream ends.
	payload := append([]byte{0xAA, 0xBB, 0x18, 0x18, 0xCC, 0xDD}, make([]byte, 20)...)
	tb.Nodes[1].SendUDP(tb.Nodes[0].MAC(), 9000, 9001, payload)
	tb.K.RunFor(5 * sim.Millisecond)

	fmt.Printf("sent payload:     %x\n", payload)
	fmt.Printf("received payload: %x\n", got)

	// The injector's own statistics and data-monitoring capture.
	eng := tb.Injector.Engine(campaign.DirInbound)
	chars, matches, injections := eng.Stats()
	fmt.Printf("injector saw %d characters, matched %d windows, injected %d faults\n",
		chars, matches, injections)
	for i, ev := range eng.Capture().Events() {
		fmt.Printf("capture[%d] (pre=%d):", i, ev.PreLen)
		for _, c := range ev.Context {
			fmt.Printf(" %v", c)
		}
		fmt.Println()
	}

	// Note: the UDP checksum catches this corruption — the paper's
	// §4.3.4 point — so the host stack dropped the datagram unless the
	// swap was checksum-neutral. Check the stack counters:
	fmt.Printf("node0 checksum drops: %d\n", tb.Nodes[0].Stats().ChecksumDrops)
	if len(got) == 0 {
		fmt.Println("datagram dropped by the UDP checksum (corruption detected end-to-end)")
	}
}
