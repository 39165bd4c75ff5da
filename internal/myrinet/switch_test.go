package myrinet

import (
	"bytes"
	"fmt"
	"testing"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

// testHost couples an Interface to capture buffers for end-to-end tests.
type testHost struct {
	ifc      *Interface
	received [][]byte
	srcs     []MAC
}

func newTestHost(k *sim.Kernel, name string, mac byte, id NodeID, mapping MappingConfig) *testHost {
	h := &testHost{}
	h.ifc = NewInterface(k, InterfaceConfig{
		Name:    name,
		MAC:     MAC{0x02, 0, 0, 0, 0, mac},
		ID:      id,
		Mapping: mapping,
	})
	h.ifc.SetDataHandler(func(src MAC, payload []byte) {
		h.received = append(h.received, append([]byte(nil), payload...))
		h.srcs = append(h.srcs, src)
	})
	return h
}

// threeNodeNet builds the Fig. 10 test bed: three hosts on one 8-port
// switch (ports 0, 1, 2), static routes unless mapping is enabled. The
// cables are indexed like the hosts.
func threeNodeNet(t *testing.T, k *sim.Kernel, mapping bool) ([]*phy.Cable, []*testHost, *Switch) {
	t.Helper()
	sw := NewSwitch(k, "sw0", DefaultPortCount)
	hosts := make([]*testHost, 3)
	cables := make([]*phy.Cable, 3)
	ifcs := make([]*Interface, 3)
	for i := range hosts {
		cfg := MappingConfig{}
		if mapping {
			cfg = MappingConfig{
				Enabled:       true,
				InitialMapper: i == 2, // highest ID maps
				MapPeriod:     100 * sim.Millisecond,
			}
		}
		hosts[i] = newTestHost(k, string(rune('A'+i)), byte(i+1), NodeID(i+1), cfg)
		ifcs[i] = hosts[i].ifc
		cables[i] = connectHost(k, hosts[i].ifc, sw, i)
	}
	if !mapping {
		staticRoutes(ifcs)
	}
	return cables, hosts, sw
}

// connectHost cables a host interface to a switch port under the link name
// the test beds give it.
func connectHost(k *sim.Kernel, ifc *Interface, sw *Switch, port int) *phy.Cable {
	return Connect(k, DefaultLinkConfig(fmt.Sprintf("%s<->%s.p%d", ifc.Name(), sw.Name(), port)), ifc, Port(sw, port))
}

// connectSwitches cables two switch ports together.
func connectSwitches(k *sim.Kernel, a *Switch, pa int, b *Switch, pb int) *phy.Cable {
	return Connect(k, DefaultLinkConfig(fmt.Sprintf("%s.p%d<->%s.p%d", a.Name(), pa, b.Name(), pb)), Port(a, pa), Port(b, pb))
}

// staticRoutes gives every interface a route to every other, ifcs[i] on
// port i of one switch, bypassing the mapping protocol.
func staticRoutes(ifcs []*Interface) {
	for _, a := range ifcs {
		for j, b := range ifcs {
			if a != b {
				a.SetRoute(b.MAC(), RouteTo(j))
			}
		}
	}
}

func TestSwitchDeliversBetweenHosts(t *testing.T) {
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, false)
	msg := []byte("hello through the crossbar")
	if err := hosts[0].ifc.Send(hosts[1].ifc.MAC(), msg); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(hosts[1].received) != 1 {
		t.Fatalf("B received %d messages, want 1", len(hosts[1].received))
	}
	if !bytes.Equal(hosts[1].received[0], msg) {
		t.Errorf("payload = %q, want %q", hosts[1].received[0], msg)
	}
	if hosts[1].srcs[0] != hosts[0].ifc.MAC() {
		t.Errorf("source = %v, want %v", hosts[1].srcs[0], hosts[0].ifc.MAC())
	}
	if hosts[2].received != nil {
		t.Error("C received a packet not addressed to it")
	}
}

func TestSwitchStripsRouteAndRecomputesCRC(t *testing.T) {
	// The receiving interface verifies CRC-8 over the stripped packet, so
	// a successful delivery proves the switch recomputed it.
	k := sim.NewKernel(1)
	_, hosts, sw := threeNodeNet(t, k, false)
	for i := 0; i < 5; i++ {
		if err := hosts[0].ifc.Send(hosts[2].ifc.MAC(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if len(hosts[2].received) != 5 {
		t.Fatalf("C received %d, want 5", len(hosts[2].received))
	}
	if got := hosts[2].ifc.Counters().Drops[DropCRC]; got != 0 {
		t.Errorf("CRC drops = %d, want 0", got)
	}
	if got := sw.PortCounters(0).PacketsForwarded; got != 5 {
		t.Errorf("switch forwarded = %d, want 5", got)
	}
}

func TestSwitchBadPortDropsUntilGap(t *testing.T) {
	k := sim.NewKernel(1)
	_, hosts, sw := threeNodeNet(t, k, false)
	// Route to port 7 (no device attached).
	hosts[0].ifc.SendPacket(&Packet{Route: RouteTo(7), Type: TypeData, Payload: []byte("x")})
	// A valid packet right behind must still be delivered.
	if err := hosts[0].ifc.Send(hosts[1].ifc.MAC(), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if got := sw.PortCounters(0).Drops[DropBadPort]; got != 1 {
		t.Errorf("DropBadPort = %d, want 1", got)
	}
	if len(hosts[1].received) != 1 {
		t.Errorf("B received %d, want 1 (resync after bad packet)", len(hosts[1].received))
	}
}

func TestSwitchMSBClearAtSwitchDrops(t *testing.T) {
	k := sim.NewKernel(1)
	_, hosts, sw := threeNodeNet(t, k, false)
	// Leading route byte with MSB clear arriving at a switch.
	hosts[0].ifc.SendPacket(&Packet{Route: []byte{RouteFinal}, Type: TypeData, Payload: []byte("x")})
	k.Run()
	if got := sw.PortCounters(0).Drops[DropSwitchMSB]; got != 1 {
		t.Errorf("DropSwitchMSB = %d, want 1", got)
	}
}

func TestInterfaceRouteMSBSetConsumedAsError(t *testing.T) {
	// §4.3.2: "If the packet reaches a destination interface with the MSB
	// set to one ... consumed and handled as an error", without incident.
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, false)
	// Two hops: port 1, then a "final" byte with MSB set.
	hosts[0].ifc.SendPacket(&Packet{
		Route:   []byte{SwitchHop(1), 0x81},
		Type:    TypeData,
		Payload: []byte("x"),
	})
	if err := hosts[0].ifc.Send(hosts[1].ifc.MAC(), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if got := hosts[1].ifc.Counters().Drops[DropRouteMSB]; got != 1 {
		t.Errorf("DropRouteMSB = %d, want 1", got)
	}
	// No delays or other errors on the target node: the good packet
	// arrives.
	if len(hosts[1].received) != 1 {
		t.Errorf("B received %d, want 1", len(hosts[1].received))
	}
}

func TestMisaddressedPacketDropped(t *testing.T) {
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, false)
	// Craft a data packet routed to B but addressed to C's MAC.
	dst := hosts[2].ifc.MAC()
	src := hosts[0].ifc.MAC()
	payload := make([]byte, 0, 14)
	payload = append(payload, dst[:]...) // dst MAC = C
	payload = append(payload, src[:]...) // src MAC = A
	payload = append(payload, 'h', 'i')
	hosts[0].ifc.SendPacket(&Packet{Route: RouteTo(1), Type: TypeData, Payload: payload})
	k.Run()
	if got := hosts[1].ifc.Counters().Drops[DropMisaddressed]; got != 1 {
		t.Errorf("DropMisaddressed = %d, want 1", got)
	}
	if len(hosts[1].received) != 0 {
		t.Error("misaddressed packet delivered")
	}
}

func TestSwitchDestinationBlockingSerializes(t *testing.T) {
	// A and C both send a burst to B: the output port is a shared
	// resource; everything must still arrive exactly once.
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, false)
	const each = 20
	for i := 0; i < each; i++ {
		if err := hosts[0].ifc.Send(hosts[1].ifc.MAC(), []byte{0xA0, byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := hosts[2].ifc.Send(hosts[1].ifc.MAC(), []byte{0xC0, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if len(hosts[1].received) != 2*each {
		t.Fatalf("B received %d, want %d", len(hosts[1].received), 2*each)
	}
	// Per-sender order preserved.
	var ai, ci byte
	for _, msg := range hosts[1].received {
		switch msg[0] {
		case 0xA0:
			if msg[1] != ai {
				t.Fatalf("A's message out of order: got %d want %d", msg[1], ai)
			}
			ai++
		case 0xC0:
			if msg[1] != ci {
				t.Fatalf("C's message out of order: got %d want %d", msg[1], ci)
			}
			ci++
		default:
			t.Fatalf("unknown sender marker %#02x", msg[0])
		}
	}
	if got := hosts[1].ifc.Counters().Drops[DropCRC]; got != 0 {
		t.Errorf("CRC drops under contention = %d, want 0", got)
	}
}

func TestSwitchLargeTransferNoLoss(t *testing.T) {
	k := sim.NewKernel(1)
	_, hosts, _ := threeNodeNet(t, k, false)
	const count = 100
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < count; i++ {
		payload[0] = byte(i)
		if err := hosts[0].ifc.Send(hosts[1].ifc.MAC(), payload); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if len(hosts[1].received) != count {
		t.Fatalf("received %d/%d large packets", len(hosts[1].received), count)
	}
	for i, msg := range hosts[1].received {
		if msg[0] != byte(i) || len(msg) != len(payload) {
			t.Fatalf("packet %d corrupted (len=%d first=%d)", i, len(msg), msg[0])
		}
	}
}

func TestTwoSwitchTopology(t *testing.T) {
	// host A - sw0(p0) ... sw0(p7) <-> sw1(p6) ... sw1(p1) - host B
	k := sim.NewKernel(1)
	sw0 := NewSwitch(k, "sw0", 8)
	sw1 := NewSwitch(k, "sw1", 8)
	a := newTestHost(k, "A", 1, 1, MappingConfig{})
	b := newTestHost(k, "B", 2, 2, MappingConfig{})
	connectHost(k, a.ifc, sw0, 0)
	connectHost(k, b.ifc, sw1, 1)
	connectSwitches(k, sw0, 7, sw1, 6)
	a.ifc.SetRoute(b.ifc.MAC(), RouteTo(7, 1))
	b.ifc.SetRoute(a.ifc.MAC(), RouteTo(6, 0))
	if err := a.ifc.Send(b.ifc.MAC(), []byte("across two switches")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(b.received) != 1 || string(b.received[0]) != "across two switches" {
		t.Fatalf("B received %v", b.received)
	}
	if err := b.ifc.Send(a.ifc.MAC(), []byte("and back")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(a.received) != 1 || string(a.received[0]) != "and back" {
		t.Fatalf("A received %v", a.received)
	}
}
