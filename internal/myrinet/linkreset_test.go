package myrinet

import (
	"testing"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

// newRecoveryEndpoint is newTestEndpoint with the recovery layer enabled.
func newRecoveryEndpoint(t *testing.T, k *sim.Kernel, name string, rc RecoveryConfig) *testEndpoint {
	t.Helper()
	ep := &testEndpoint{}
	out := phy.NewLink(k, phy.LinkConfig{Name: name + ".out", CharPeriod: CharPeriod},
		phy.ReceiverFunc(func(chars []phy.Character) { ep.sent = append(ep.sent, chars...) }))
	ep.lc = NewLinkController(k, LinkControllerConfig{
		Name:     name,
		Out:      out,
		Counters: NewCounters(),
		Recovery: rc,
	})
	return ep
}

func TestLinkResetOnLongTimeout(t *testing.T) {
	// With recovery enabled the long-period termination escalates to a
	// full link reset: RESET on the wire, counters, transmitter freed.
	k := sim.NewKernel(1)
	ep := newRecoveryEndpoint(t, k, "a", RecoveryConfig{Enabled: true})
	terminated := false
	enqueueCopy(ep.lc, packetChars(1000), txFunc(func(term bool) { terminated = term }))
	k.RunUntil(txChunkChars * CharPeriod)
	var refresh func()
	refresh = func() {
		ep.lc.Receive([]phy.Character{StopChar()})
		if k.Now() < LongTimeout+sim.Millisecond {
			k.After(StopRefresh, refresh)
		}
	}
	refresh()
	k.RunUntil(LongTimeout + 10*sim.Millisecond)
	if !terminated {
		t.Fatal("long-period timeout did not terminate the packet")
	}
	ctr := ep.lc.Counters()
	if ctr.LinkResets != 1 {
		t.Errorf("LinkResets = %d, want 1", ctr.LinkResets)
	}
	if ep.countControl(SymbolReset) != 1 {
		t.Errorf("RESET symbols on wire = %d, want 1", ep.countControl(SymbolReset))
	}
	if ep.lc.Paused() {
		t.Error("transmitter still paused after reset")
	}
	// The link is usable again: a fresh packet goes through.
	done := false
	enqueueCopy(ep.lc, packetChars(10), txFunc(func(term bool) { done = !term }))
	k.Run()
	if !done {
		t.Error("packet after reset did not transmit")
	}
}

func TestStopWatchdogResetsWedgedLink(t *testing.T) {
	// A remote that refreshes STOP forever (its consumer is wedged) never
	// lets the long timer's act-as-GO path help; the stop watchdog is the
	// deadline that finally breaks the link.
	k := sim.NewKernel(1)
	ep := newRecoveryEndpoint(t, k, "a", RecoveryConfig{
		Enabled:      true,
		StopWatchdog: 2 * sim.Millisecond, // well under LongTimeout for the test
	})
	terminated := false
	enqueueCopy(ep.lc, packetChars(1000), txFunc(func(term bool) { terminated = term }))
	k.RunUntil(txChunkChars * CharPeriod)
	var refresh func()
	refresh = func() {
		ep.lc.Receive([]phy.Character{StopChar()})
		if k.Now() < 3*sim.Millisecond {
			k.After(StopRefresh, refresh)
		}
	}
	refresh()
	k.RunUntil(4 * sim.Millisecond)
	ctr := ep.lc.Counters()
	if ctr.StopWatchdogFires == 0 {
		t.Fatal("stop watchdog never fired under perpetual STOP refresh")
	}
	if !terminated {
		t.Error("in-flight packet not terminated by the watchdog")
	}
	if ctr.LinkResets == 0 {
		t.Error("watchdog fired without resetting the link")
	}
	if ep.countControl(SymbolReset) == 0 {
		t.Error("no RESET symbol on the wire")
	}
	if ctr.LongTimeouts != 0 {
		t.Errorf("LongTimeouts = %d, want 0 (watchdog should preempt)", ctr.LongTimeouts)
	}
}

func TestStopWatchdogNotRearmedByRefreshes(t *testing.T) {
	// The watchdog measures continuous STOP from the first pause; STOP
	// refreshes must not push the deadline out.
	k := sim.NewKernel(1)
	ep := newRecoveryEndpoint(t, k, "a", RecoveryConfig{
		Enabled:      true,
		StopWatchdog: sim.Millisecond,
	})
	enqueueCopy(ep.lc, packetChars(1000), nil)
	k.RunUntil(txChunkChars * CharPeriod)
	start := k.Now()
	var refresh func()
	refresh = func() {
		ep.lc.Receive([]phy.Character{StopChar()})
		if ep.lc.Counters().StopWatchdogFires == 0 {
			k.After(StopRefresh, refresh)
		}
	}
	refresh()
	k.RunUntil(start + 2*sim.Millisecond)
	if ep.lc.Counters().StopWatchdogFires != 1 {
		t.Fatalf("StopWatchdogFires = %d, want 1", ep.lc.Counters().StopWatchdogFires)
	}
}

func TestReceiveResetFlushesSlackAndNotifies(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newRecoveryEndpoint(t, k, "a", RecoveryConfig{Enabled: true})
	resets := 0
	ep.lc.setConsumer(funcConsumer{reset: func() { resets++ }})
	chars := make([]phy.Character, 10)
	for i := range chars {
		chars[i] = phy.DataChar(byte(i))
	}
	ep.lc.Receive(chars)
	if ep.lc.Buffered() != 10 {
		t.Fatalf("Buffered = %d before reset", ep.lc.Buffered())
	}
	ep.lc.Receive([]phy.Character{ResetChar()})
	if ep.lc.Buffered() != 0 {
		t.Errorf("Buffered = %d after reset, want 0", ep.lc.Buffered())
	}
	if resets != 1 {
		t.Errorf("reset handler invoked %d times, want 1", resets)
	}
	ctr := ep.lc.Counters()
	if ctr.ResetsReceived != 1 || ctr.FlushedChars != 10 {
		t.Errorf("ResetsReceived=%d FlushedChars=%d, want 1/10", ctr.ResetsReceived, ctr.FlushedChars)
	}
}

func TestResetIgnoredWithoutRecovery(t *testing.T) {
	// The paper's hardware does not know the symbol: a RESET must be
	// treated like any unassigned control code.
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	chars := make([]phy.Character, 5)
	for i := range chars {
		chars[i] = phy.DataChar(byte(i))
	}
	ep.lc.Receive(chars)
	ep.lc.Receive([]phy.Character{ResetChar()})
	if ep.lc.Buffered() != 5 {
		t.Errorf("Buffered = %d, want 5 (reset must be a no-op)", ep.lc.Buffered())
	}
	if ep.lc.Counters().ResetsReceived != 0 {
		t.Errorf("ResetsReceived = %d, want 0", ep.lc.Counters().ResetsReceived)
	}
}

func TestResetClearsStandingStop(t *testing.T) {
	// A reset flushes the slack past its low watermark, so the stale STOP
	// state must clear: GO goes out and the refresh chain dies.
	k := sim.NewKernel(1)
	ep := newRecoveryEndpoint(t, k, "a", RecoveryConfig{Enabled: true})
	burst := make([]phy.Character, DefaultSlackHigh)
	for i := range burst {
		burst[i] = phy.DataChar(byte(i))
	}
	ep.lc.Receive(burst)
	k.RunFor(CharPeriod)
	if ep.countControl(SymbolStop) < 1 {
		t.Fatal("no STOP at high watermark")
	}
	ep.lc.Receive([]phy.Character{ResetChar()})
	k.RunFor(CharPeriod)
	if ep.countControl(SymbolGo) != 1 {
		t.Errorf("GO count = %d, want 1 after reset cleared the buffer", ep.countControl(SymbolGo))
	}
	stops := ep.countControl(SymbolStop)
	k.RunFor(20 * StopRefresh)
	if got := ep.countControl(SymbolStop); got != stops {
		t.Errorf("STOP refresh survived the reset: %d -> %d", stops, got)
	}
}

// recoveryNet is threeNodeNet with the recovery layer enabled everywhere,
// using short test deadlines.
func recoveryNet(t *testing.T, k *sim.Kernel) ([]*testHost, *Switch) {
	t.Helper()
	rc := RecoveryConfig{
		Enabled:        true,
		BlockedTimeout: 2 * sim.Millisecond,
		StopWatchdog:   4 * sim.Millisecond,
	}
	sw := NewSwitch(k, "sw0", DefaultPortCount)
	sw.SetRecovery(rc)
	hosts := make([]*testHost, 3)
	ifcs := make([]*Interface, 3)
	for i := range hosts {
		hosts[i] = &testHost{}
		hosts[i].ifc = NewInterface(k, InterfaceConfig{
			Name:     string(rune('A' + i)),
			MAC:      MAC{0x02, 0, 0, 0, 0, byte(i + 1)},
			ID:       NodeID(i + 1),
			Recovery: rc,
		})
		h := hosts[i]
		h.ifc.SetDataHandler(func(src MAC, payload []byte) {
			h.received = append(h.received, append([]byte(nil), payload...))
			h.srcs = append(h.srcs, src)
		})
		ifcs[i] = h.ifc
		connectHost(k, h.ifc, sw, i)
	}
	staticRoutes(ifcs)
	return hosts, sw
}

func TestSwitchBlockedTimeoutBreaksHeldPath(t *testing.T) {
	// The §4.3.1 GAP-loss hang, with the recovery layer switched on: A's
	// packet to B loses its GAP, so switch port 0 holds the A->B path
	// forever and C's packet to B queues behind it. The blocked-packet
	// watchdog terminates the stuck stream (GAP+RESET downstream),
	// releases the output, and C's packet goes through.
	k := sim.NewKernel(1)
	hosts, sw := recoveryNet(t, k)
	a, b, c := hosts[0], hosts[1], hosts[2]

	link := a.ifc.Controller().Out()
	killer := &gapKiller{dst: link.Dst(), remain: 1}
	link.SetDst(killer)

	if err := a.ifc.Send(b.ifc.MAC(), []byte("loses its gap")); err != nil {
		t.Fatal(err)
	}
	k.RunFor(100 * sim.Microsecond)
	if err := c.ifc.Send(b.ifc.MAC(), []byte("queued behind")); err != nil {
		t.Fatal(err)
	}
	k.Run()

	if killer.killed != 1 {
		t.Fatalf("gapKiller killed %d GAPs, want 1", killer.killed)
	}
	if len(b.received) != 1 || string(b.received[0]) != "queued behind" {
		t.Fatalf("B received %q, want C's packet after recovery", b.received)
	}
	p0 := sw.PortCounters(0)
	if p0.BlockedTimeouts != 1 {
		t.Errorf("port 0 BlockedTimeouts = %d, want 1", p0.BlockedTimeouts)
	}
	if p0.LinkResets == 0 {
		t.Error("port 0 recorded no link reset")
	}
	if p0.Drops[DropBlocked] != 1 {
		t.Errorf("port 0 DropBlocked = %d, want 1", p0.Drops[DropBlocked])
	}
	bc := b.ifc.Counters()
	if bc.ResetsReceived == 0 {
		t.Error("B's interface never saw the forward RESET")
	}
	// The RESET flushes B's slack — including the terminating GAP — so
	// the partial packet dies as a reset abort, not a CRC failure.
	if bc.Drops[DropReset] != 1 {
		t.Errorf("B DropReset = %d, want 1 (partial packet aborted)", bc.Drops[DropReset])
	}
}

func TestSwitchHeldPathHangsWithoutRecovery(t *testing.T) {
	// The same scenario with recovery disabled reproduces the paper: the
	// path stays held, C's packet never arrives, and the simulation
	// simply runs out of events with the output port still owned.
	k := sim.NewKernel(1)
	_, hosts, sw := threeNodeNet(t, k, false)
	a, b, c := hosts[0], hosts[1], hosts[2]

	link := a.ifc.Controller().Out()
	killer := &gapKiller{dst: link.Dst(), remain: 1}
	link.SetDst(killer)

	if err := a.ifc.Send(b.ifc.MAC(), []byte("loses its gap")); err != nil {
		t.Fatal(err)
	}
	k.RunFor(100 * sim.Microsecond)
	if err := c.ifc.Send(b.ifc.MAC(), []byte("never arrives")); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Second)

	if len(b.received) != 0 {
		t.Fatalf("B received %q, want nothing (paper hang)", b.received)
	}
	if sw.ports[1].owner == nil {
		t.Error("output port released without recovery — hang not reproduced")
	}
	if got := sw.PortCounters(0).BlockedTimeouts; got != 0 {
		t.Errorf("BlockedTimeouts = %d with recovery off, want 0", got)
	}
}

func TestHostInterfaceAbandonsReassemblyOnReset(t *testing.T) {
	// A RESET arriving mid-reassembly (no terminating GAP seen) must drop
	// the partial packet and leave the parser clean for the next one.
	k := sim.NewKernel(1)
	rc := RecoveryConfig{Enabled: true}
	a := newTestHost(k, "A", 1, 1, MappingConfig{})
	b := &testHost{}
	b.ifc = NewInterface(k, InterfaceConfig{
		Name: "B", MAC: MAC{0x02, 0, 0, 0, 0, 2}, ID: 2, Recovery: rc,
	})
	b.ifc.SetDataHandler(func(src MAC, payload []byte) {
		b.received = append(b.received, append([]byte(nil), payload...))
	})
	Connect(k, DefaultLinkConfig("ab"), a.ifc, b.ifc)
	a.ifc.SetRoute(b.ifc.MAC(), []byte{RouteFinal})
	b.ifc.SetRoute(a.ifc.MAC(), []byte{RouteFinal})

	// Tap A's wire: replace the packet's terminating GAP with a RESET.
	link := a.ifc.Controller().Out()
	inner := link.Dst()
	link.SetDst(phy.ReceiverFunc(func(chars []phy.Character) {
		out := make([]phy.Character, 0, len(chars))
		for _, ch := range chars {
			if !ch.IsData() && DecodeControl(ch.Byte()) == SymbolGap {
				out = append(out, ResetChar())
				continue
			}
			out = append(out, ch)
		}
		inner.Receive(out)
	}))
	if err := a.ifc.Send(b.ifc.MAC(), []byte("tail replaced by reset")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(b.received) != 0 {
		t.Fatalf("B received %q, want nothing", b.received)
	}
	if got := b.ifc.Counters().Drops[DropReset]; got != 1 {
		t.Errorf("DropReset = %d, want 1", got)
	}
	// Parser is clean: an untouched follow-up packet delivers.
	link.SetDst(inner)
	if err := a.ifc.Send(b.ifc.MAC(), []byte("clean again")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(b.received) != 1 || string(b.received[0]) != "clean again" {
		t.Errorf("B received %q after reset, want the follow-up packet", b.received)
	}
}
