// Chameleon-style correlated failures, §4.4: "Chameleon contains
// application processes that block while waiting for certain messages. If
// errors in the underlying Myrinet network cause a node to hang, processes
// that require the services of a blocking process will block as well,
// causing correlated failures."
//
// This example builds a three-stage request chain (node0 asks node1, node1
// asks node2, node2 answers), then uses the injector to wedge node2's link
// with continuous GAP→STOP corruption. The hang propagates backwards
// through the chain — a PASSIVE network fault becoming a correlated
// application-level outage — until a watchdog (the recovery Chameleon's
// diagnosis layer would run) notices the blocked stage.
package main

import (
	"fmt"

	"netfi/internal/campaign"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

func main() {
	tb := campaign.NewTestbed(campaign.TestbedConfig{Seed: 9, TapNode: 2})
	k := tb.K
	n0, n1, n2 := tb.Nodes[0], tb.Nodes[1], tb.Nodes[2]

	const (
		portReq  = 7100
		deadline = 20 * sim.Millisecond
	)
	var served, answered, chained int

	// Stage 3 (node2): the leaf service.
	if _, err := n2.Bind(portReq, func(src myrinet.MAC, srcPort uint16, data []byte) {
		served++
		n2.SendUDP(src, portReq, srcPort, append([]byte("leaf:"), data...))
	}); err != nil {
		panic(err)
	}
	// Stage 2 (node1): blocks on node2 before answering node0.
	var pending []myrinet.MAC
	if _, err := n1.Bind(portReq, func(src myrinet.MAC, srcPort uint16, data []byte) {
		pending = append(pending, src)
		n1.SendUDP(n2.MAC(), portReq+1, portReq, data) // block on the leaf
	}); err != nil {
		panic(err)
	}
	if _, err := n1.Bind(portReq+1, func(_ myrinet.MAC, _ uint16, data []byte) {
		if len(pending) == 0 {
			return
		}
		chained++
		dst := pending[0]
		pending = pending[1:]
		n1.SendUDP(dst, portReq, portReq+2, data)
	}); err != nil {
		panic(err)
	}
	// Stage 1 (node0): the requester, with a per-request watchdog.
	done := map[byte]bool{}
	hangsDiagnosed := 0
	if _, err := n0.Bind(portReq+2, func(_ myrinet.MAC, _ uint16, data []byte) {
		answered++
		if len(data) > 0 {
			done[data[len(data)-1]] = true
		}
	}); err != nil {
		panic(err)
	}
	request := func(i int) {
		id := byte(i)
		n0.SendUDP(n1.MAC(), portReq+2, portReq, []byte{id})
		k.After(deadline, func() {
			if !done[id] {
				// The Chameleon recovery path: diagnose a hang and
				// initiate recovery ([Whi01]).
				hangsDiagnosed++
			}
		})
	}

	// Phase 1: healthy chain.
	for i := 0; i < 5; i++ {
		k.After(sim.Duration(i)*5*sim.Millisecond, func() { request(i) })
	}
	k.RunFor(100 * sim.Millisecond)
	fmt.Printf("healthy phase:  answered %d/5 requests, hangs diagnosed: %d\n", answered, hangsDiagnosed)

	// Phase 2: wedge the leaf's link — a passive network fault. Every
	// GAP on node2's link becomes a spurious STOP, in both directions.
	for _, dir := range []string{"L", "R"} {
		if err := tb.Configure(
			"DIR "+dir,
			"COMPARE -- -- -- X0C",
			"CORRUPT REPLACE -- -- -- X0F",
			"MODE ON",
		); err != nil {
			panic(err)
		}
	}
	a0 := answered
	for i := 0; i < 5; i++ {
		k.After(sim.Duration(i)*5*sim.Millisecond, func() { request(10 + i) })
	}
	k.RunFor(150 * sim.Millisecond)
	fmt.Printf("wedged phase:   answered %d/5 requests, hangs diagnosed: %d\n", answered-a0, hangsDiagnosed)
	fmt.Printf("correlated blocking: node1 still waiting on the leaf for %d requests\n", len(pending))

	// Phase 3: clear the fault; after the network's own transient
	// recovery (stray merged streams resync at the next GAP), the chain
	// works again — "the Myrinet protocols are able to handle these
	// faults with only transient downtime".
	tb.ConfigureBothMode(false)
	k.RunFor(100 * sim.Millisecond)
	a1, h1 := answered, hangsDiagnosed
	pending = nil
	for i := 0; i < 5; i++ {
		k.After(sim.Duration(i)*5*sim.Millisecond, func() { request(20 + i) })
	}
	k.RunFor(150 * sim.Millisecond)
	fmt.Printf("recovered phase: answered %d/5 requests, new hangs: %d\n", answered-a1, hangsDiagnosed-h1)
	fmt.Printf("\nleaf served %d requests total; chain completions %d\n", served, chained)
	fmt.Println("a PASSIVE fault (data dropped, never corrupted) still propagates as correlated app-level blocking — §4.4's point")
}
