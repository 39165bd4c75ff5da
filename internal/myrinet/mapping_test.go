package myrinet

import (
	"bytes"
	"testing"

	"netfi/internal/sim"
)

func TestMappingDiscoversThreeNodes(t *testing.T) {
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, true)
	k.RunUntil(50 * sim.Millisecond) // one round completes within 2 ms
	mapper := hosts[2].ifc.MCP()
	if !mapper.IsMapper() {
		t.Fatal("host C (highest ID) is not the mapper")
	}
	snap := mapper.LastSnapshot()
	if snap == nil {
		t.Fatal("no snapshot after mapping round")
	}
	if snap.NodeCount() != 3 {
		t.Fatalf("map has %d nodes, want 3: %+v", snap.NodeCount(), snap.Entries)
	}
	if snap.Inconsistent {
		t.Error("healthy network produced an inconsistent map")
	}
	for _, h := range hosts {
		if !snap.Has(h.ifc.MAC()) {
			t.Errorf("map missing %v", h.ifc.MAC())
		}
	}
}

func TestMappingDistributesWorkingRoutes(t *testing.T) {
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, true)
	k.RunUntil(50 * sim.Millisecond)
	// Every host must now reach every other using mapped routes only.
	for i, from := range hosts {
		for j, to := range hosts {
			if i == j {
				continue
			}
			if err := from.ifc.Send(to.ifc.MAC(), []byte{byte(i), byte(j)}); err != nil {
				t.Fatalf("%s -> %s: %v", from.ifc.Name(), to.ifc.Name(), err)
			}
		}
	}
	k.RunFor(10 * sim.Millisecond)
	for j, to := range hosts {
		if len(to.received) != 2 {
			t.Errorf("host %d received %d messages, want 2", j, len(to.received))
		}
	}
}

func TestMappingPeriodicRounds(t *testing.T) {
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, true) // MapPeriod = 100 ms
	k.RunUntil(450 * sim.Millisecond)
	total, failed := hosts[2].ifc.MCP().Rounds()
	if total < 4 || total > 6 {
		t.Errorf("rounds in 450 ms = %d, want ~4-5", total)
	}
	if failed != 0 {
		t.Errorf("failed rounds = %d, want 0", failed)
	}
}

func TestMappingNodeRemovalOnSilence(t *testing.T) {
	// Detach host A mid-run: the next mapping round must drop it from
	// the map and from the other nodes' routing tables.
	k := sim.NewKernel(1)
	cables, hosts, _ := threeNodeNet(t, k, true)
	k.RunUntil(50 * sim.Millisecond)
	if _, ok := hosts[1].ifc.Route(hosts[0].ifc.MAC()); !ok {
		t.Fatal("B has no route to A after first round")
	}
	// Sever A's cable (both directions discard).
	cable := cables[0]
	cable.LeftToRight.SetDst(nullReceiver{})
	cable.RightToLeft.SetDst(nullReceiver{})
	k.RunUntil(250 * sim.Millisecond) // two more rounds
	snap := hosts[2].ifc.MCP().LastSnapshot()
	if snap.Has(hosts[0].ifc.MAC()) {
		t.Error("map still contains detached node A")
	}
	if _, ok := hosts[1].ifc.Route(hosts[0].ifc.MAC()); ok {
		t.Error("B still has a route to detached node A")
	}
	// Send attempts now fail with no-route.
	if err := hosts[1].ifc.Send(hosts[0].ifc.MAC(), []byte("x")); err == nil {
		t.Error("send to removed node succeeded")
	}
}

func TestMappingWatchdogPromotesNextMapper(t *testing.T) {
	// Kill the mapper (host C): after the watchdog period, another node
	// must take over mapping.
	k := sim.NewKernel(1)
	cables, hosts, _ := threeNodeNet(t, k, true)
	k.RunUntil(50 * sim.Millisecond)
	cable := cables[2]
	cable.LeftToRight.SetDst(nullReceiver{})
	cable.RightToLeft.SetDst(nullReceiver{})
	// Watchdog factor 2.5 * 100 ms = 250 ms; allow a few rounds after.
	k.RunUntil(600 * sim.Millisecond)
	if !hosts[0].ifc.MCP().IsMapper() && !hosts[1].ifc.MCP().IsMapper() {
		t.Fatal("no surviving node promoted itself to mapper")
	}
	// The new mapper should have produced a 2-node map.
	var snap *Snapshot
	for _, h := range hosts[:2] {
		if s := h.ifc.MCP().LastSnapshot(); s != nil {
			snap = s
		}
	}
	if snap == nil {
		t.Fatal("no snapshot from the new mapper")
	}
	if snap.NodeCount() != 2 {
		t.Errorf("new map has %d nodes, want 2", snap.NodeCount())
	}
}

func TestMappingHigherIDTakesOver(t *testing.T) {
	// Start with the LOWEST id as initial mapper; once its table reaches
	// the higher-ID nodes, the highest must take over (§4.1).
	k := sim.NewKernel(1)
	sw := NewSwitch(k, "sw0", 8)
	hosts := make([]*testHost, 3)
	for i := range hosts {
		hosts[i] = newTestHost(k, string(rune('A'+i)), byte(i+1), NodeID(i+1), MappingConfig{
			Enabled:       true,
			InitialMapper: i == 0, // wrong node starts as mapper
			MapPeriod:     100 * sim.Millisecond,
		})
		connectHost(k, hosts[i].ifc, sw, i)
	}
	k.RunUntil(500 * sim.Millisecond)
	if hosts[0].ifc.MCP().IsMapper() {
		t.Error("low-ID node still mapper after takeover window")
	}
	if !hosts[2].ifc.MCP().IsMapper() {
		t.Error("highest-ID node did not take over mapping")
	}
}

func TestMappingDuplicateControllerAddressCorruptsMap(t *testing.T) {
	// §4.3.3 / Fig. 11: when a scout reply claims the controller's own
	// identity, the mapper cannot build a consistent map, and successive
	// attempts fail differently.
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, true)
	// Intercept host A's scout replies by rewriting its identity to the
	// mapper's at the packet-observer level is not possible (observer is
	// read-only), so emulate the in-flight corruption: give A the
	// mapper's MAC before the first round.
	hosts[0].ifc.cfg.MAC = hosts[2].ifc.MAC()
	sizes := map[int]bool{}
	for round := 0; round < 6; round++ {
		k.RunUntil(sim.Time(50+100*round) * sim.Millisecond)
		snap := hosts[2].ifc.MCP().LastSnapshot()
		if snap == nil {
			continue
		}
		if !snap.Inconsistent {
			t.Fatalf("round %d: duplicate controller identity produced a consistent map", round)
		}
		sizes[snap.NodeCount()] = true
	}
	_, failed := hosts[2].ifc.MCP().Rounds()
	if failed == 0 {
		t.Fatal("no failed rounds recorded")
	}
	if len(sizes) < 2 {
		t.Errorf("faulty map was static across rounds (sizes %v); paper reports it varies", sizes)
	}
}

func TestScoutReplyEncodingRoundTrip(t *testing.T) {
	// The appended in-ports must come back reversed as the reply route.
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, true)
	k.RunUntil(5 * sim.Millisecond)
	// After one round, the mapper's own entry has empty in-ports and the
	// others have exactly one (the mapper's attach port, 2).
	snap := hosts[2].ifc.MCP().LastSnapshot()
	if snap == nil {
		t.Fatal("no snapshot")
	}
	for _, e := range snap.Entries[1:] {
		if !bytes.Equal(e.InPorts, []byte{2}) {
			t.Errorf("entry %v in-ports = %v, want [2]", e.MAC, e.InPorts)
		}
	}
}
