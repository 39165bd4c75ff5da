package myrinet

import (
	"testing"

	"netfi/internal/sim"
)

// TestMappingDemotionThenRepromotion: a node that took over mapping while
// the real mapper was unreachable must cede the role when the higher ID
// returns, and reclaim it if the higher one vanishes again — the §4.1
// "highest address is responsible" rule as an ongoing arbitration, not a
// one-shot election.
func TestMappingDemotionThenRepromotion(t *testing.T) {
	k := sim.NewKernel(1)
	cables, hosts, _ := threeNodeNet(t, k, true) // MapPeriod 100 ms, C (ID 3) maps
	k.RunUntil(50 * sim.Millisecond)
	high := hosts[2].ifc.MCP()
	mid := hosts[1].ifc.MCP()
	if !high.IsMapper() {
		t.Fatal("highest ID not mapper after warmup")
	}

	// Sever C: B (next highest) promotes via watchdog.
	cable := cables[2]
	origL, origR := cable.LeftToRight.Dst(), cable.RightToLeft.Dst()
	cable.LeftToRight.SetDst(nullReceiver{})
	cable.RightToLeft.SetDst(nullReceiver{})
	k.RunUntil(600 * sim.Millisecond)
	if !mid.IsMapper() {
		t.Fatal("next-highest node did not promote after mapper loss")
	}

	// Reconnect C: its tables (ID 3 > ID 2) must demote B.
	cable.LeftToRight.SetDst(origL)
	cable.RightToLeft.SetDst(origR)
	k.RunUntil(1200 * sim.Millisecond)
	if mid.IsMapper() {
		t.Error("lower-ID node still mapper after the higher ID returned")
	}
	if !high.IsMapper() {
		t.Error("returned highest-ID node did not reclaim mapping")
	}
	if mid.demotions == 0 {
		t.Error("no demotion recorded")
	}
	// The network must be whole again: full 3-node map distributed.
	snap := high.LastSnapshot()
	if snap == nil || snap.NodeCount() != 3 || snap.Inconsistent {
		t.Errorf("post-recovery map wrong: %+v", snap)
	}
}

// TestMappingRoutesSurviveManyRounds: route churn across many consecutive
// rounds on a healthy network must never leave a window where a node has
// no route to a peer (tables are replaced atomically per node).
func TestMappingRoutesSurviveManyRounds(t *testing.T) {
	k := sim.NewKernel(2)
	_, hosts, _ := threeNodeNet(t, k, true)
	k.RunUntil(50 * sim.Millisecond)
	// Sample routing tables at random offsets across 10 rounds.
	for i := 0; i < 40; i++ {
		k.RunFor(sim.Duration(23+i) * sim.Millisecond)
		for a := range hosts {
			for b := range hosts {
				if a == b {
					continue
				}
				if _, ok := hosts[a].ifc.Route(hosts[b].ifc.MAC()); !ok {
					t.Fatalf("sample %d: node %d lost its route to node %d", i, a, b)
				}
			}
		}
	}
}

// TestMappingScoutSequenceAdvances: probe sequence numbers keep rising
// across rounds so stale replies can never be mistaken for current ones.
func TestMappingScoutSequenceAdvances(t *testing.T) {
	k := sim.NewKernel(3)
	_, hosts, _ := threeNodeNet(t, k, true)
	mcp := hosts[2].ifc.MCP()
	k.RunUntil(450 * sim.Millisecond)
	total, _ := mcp.Rounds()
	if total < 4 {
		t.Fatalf("only %d rounds completed", total)
	}
	if mcp.seq < uint16(total)*uint16(DefaultPortCount) {
		t.Errorf("seq = %d after %d rounds of %d probes", mcp.seq, total, DefaultPortCount)
	}
}
