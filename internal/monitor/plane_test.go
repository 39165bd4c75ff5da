package monitor

import (
	"fmt"
	"strings"
	"testing"

	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// testPacket builds the wire characters of one data packet as a switch
// input tap would see it: route hop, final route byte, 4-byte type, dst and
// src identifiers, payload, CRC byte, GAP.
func testPacket(src, dst [6]byte, payload int) []phy.Character {
	raw := []byte{myrinet.SwitchHop(2), myrinet.RouteFinal, 0, 0, 0, byte(myrinet.TypeData)}
	raw = append(raw, dst[:]...)
	raw = append(raw, src[:]...)
	for i := 0; i < payload; i++ {
		raw = append(raw, 0x55)
	}
	raw = append(raw, 0xAB) // stand-in CRC; taps do not verify it
	chars := phy.DataChars(raw)
	return append(chars, phy.ControlChar(myrinet.SymGap))
}

func TestTapFlowExtraction(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{})
	tap := p.NewTap("sw0.p0", TapOptions{Flows: true, Detect: true})

	src, dst := macOf(1), macOf(2)
	pkt := testPacket(src, dst, 20)
	for i := 0; i < 3; i++ {
		tap.ObserveChars(sim.Time(i)*sim.Time(sim.Millisecond), pkt)
	}
	if tap.Flows().Active() != 1 {
		t.Fatalf("active flows = %d, want 1", tap.Flows().Active())
	}
	tap.Flows().FlushAll()
	rec, ok := p.Ring().Pop()
	if !ok {
		t.Fatal("no flow record exported")
	}
	want := FlowKey{Src: src, Dst: dst}
	if rec.Key != want {
		t.Fatalf("flow key = %v, want %v", rec.Key, want)
	}
	if rec.Packets != 3 || rec.Bytes != uint64(3*len(pkt)-3) {
		t.Fatalf("record packets=%d bytes=%d, want 3/%d", rec.Packets, rec.Bytes, 3*len(pkt)-3)
	}
	if tap.Detector().Heartbeats() != 3 {
		t.Fatalf("detector heartbeats = %d, want 3", tap.Detector().Heartbeats())
	}
}

func TestTapSplitBurstsAndControlPackets(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{})
	tap := p.NewTap("t", TapOptions{Flows: true})

	// A data packet delivered across three bursts must still classify.
	pkt := testPacket(macOf(1), macOf(2), 10)
	tap.ObserveChars(0, pkt[:5])
	tap.ObserveChars(0, pkt[5:11])
	tap.ObserveChars(0, pkt[11:])
	// A mapping packet counts as control, not a flow.
	mp := []byte{myrinet.RouteFinal, 0, 0, 0, byte(myrinet.TypeMapping), 1, 2, 3}
	tap.ObserveChars(0, append(phy.DataChars(mp), phy.ControlChar(myrinet.SymGap)))

	_, _, packets, control := tap.Stats()
	if packets != 1 || control != 1 {
		t.Fatalf("packets=%d control=%d, want 1/1", packets, control)
	}
}

func TestTapResetTerminatesFlows(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{})
	tap := p.NewTap("t", TapOptions{Flows: true})
	tap.ObserveChars(0, testPacket(macOf(1), macOf(2), 10))
	tap.ObserveChars(0, []phy.Character{phy.ControlChar(myrinet.SymReset)})
	rec, ok := p.Ring().Pop()
	if !ok || rec.Cause != CauseReset {
		t.Fatalf("after RESET: record=%+v ok=%v, want reset-cause export", rec, ok)
	}
	if tap.Flows().Active() != 0 {
		t.Fatal("flow cache should be empty after RESET")
	}
}

func TestPlaneSuspectAndRecover(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{SampleInterval: sim.Millisecond})
	tap := p.NewTap("node1.rx", TapOptions{Detect: true})
	p.Start()

	pkt := testPacket(macOf(2), macOf(1), 8)
	// Heartbeats every 2 ms for 40 ms, then silence.
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * sim.Time(2*sim.Millisecond)
		k.At(at, func() { tap.ObserveChars(k.Now(), pkt) })
	}
	k.RunUntil(sim.Time(100 * sim.Millisecond))

	var suspect *Event
	for i := range p.Events() {
		if p.Events()[i].Kind == EventSuspect {
			suspect = &p.Events()[i]
			break
		}
	}
	if suspect == nil {
		t.Fatalf("no suspect event after silence; events=%v", p.Events())
	}
	if suspect.Source != "node1.rx" {
		t.Fatalf("suspect source = %q, want node1.rx", suspect.Source)
	}
	lastBeat := sim.Time(19 * 2 * sim.Millisecond)
	lat := suspect.Time - lastBeat
	if lat <= 0 || lat > sim.Time(20*sim.Millisecond) {
		t.Fatalf("suspicion latency = %v, want within (0, 20ms]", lat)
	}

	// Fresh heartbeats recover the source.
	for i := 0; i < 3; i++ {
		at := sim.Time(100*sim.Millisecond) + sim.Time(i)*sim.Time(2*sim.Millisecond)
		k.At(at, func() { tap.ObserveChars(k.Now(), pkt) })
	}
	k.RunUntil(sim.Time(110 * sim.Millisecond))
	found := false
	for _, e := range p.Events() {
		if e.Kind == EventRecover && e.Time > suspect.Time {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recover event after heartbeats resumed; events=%v", p.Events())
	}
	p.Stop()
}

func TestPlaneLossAndWedgeProbes(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{SampleInterval: sim.Millisecond})
	var drops uint64
	var held int
	p.AddLossProbe("net.drops", func() uint64 { return drops })
	p.AddWedgeProbe("sw0.held", func() int { return held })
	p.Start()

	k.At(sim.Time(5*sim.Millisecond), func() { drops = 3 })
	k.At(sim.Time(20*sim.Millisecond), func() { held = 1 })
	k.At(sim.Time(40*sim.Millisecond), func() { held = 0 })
	k.RunUntil(sim.Time(50 * sim.Millisecond))
	p.Stop()

	var loss, wedge *Event
	for i := range p.Events() {
		e := &p.Events()[i]
		switch e.Detail {
		case "loss-burst":
			if loss == nil {
				loss = e
			}
		case "wedge":
			if wedge == nil {
				wedge = e
			}
		}
	}
	// The drop lands at 5 ms before that instant's sampling pass (it was
	// scheduled first), so the 5 ms tick already reports it.
	if loss == nil || loss.Time != sim.Time(5*sim.Millisecond) || loss.Value != 3 {
		t.Fatalf("loss event = %+v, want t=5ms value=3", loss)
	}
	// Held from 20 ms (before that instant's pass): nonzero samples at
	// 20 ms and 21 ms, so the two-sample persistence alarm fires at 21 ms.
	if wedge == nil || wedge.Time != sim.Time(21*sim.Millisecond) {
		t.Fatalf("wedge event = %+v, want t=21ms", wedge)
	}
	// Exactly one event per episode.
	n := 0
	for _, e := range p.Events() {
		if e.Detail == "loss-burst" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("loss events = %d, want 1 (single episode)", n)
	}
}

func TestPlaneStopAtDrainsKernel(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{SampleInterval: sim.Millisecond})
	p.AddLossProbe("x", func() uint64 { return 0 })
	p.SetStopAt(sim.Time(10 * sim.Millisecond))
	p.Start()
	// Run() must terminate: the ticker parks at the horizon.
	k.Run()
	if k.Now() > sim.Time(10*sim.Millisecond) {
		t.Fatalf("kernel ran to %v, want <= 10ms", k.Now())
	}
	if p.Ticks() != 10 {
		t.Fatalf("ticks = %d, want 10", p.Ticks())
	}
}

func TestTapObserveAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{})
	tap := p.NewTap("t", TapOptions{Flows: true, Detect: true, LatencyShift: true})
	pkt := testPacket(macOf(1), macOf(2), 20)
	now := sim.Time(0)
	// Warm: open the flow, fill the shift baseline.
	for i := 0; i < 64; i++ {
		now += sim.Time(sim.Millisecond)
		tap.ObserveChars(now, pkt)
	}
	allocs := testing.AllocsPerRun(200, func() {
		now += sim.Time(sim.Millisecond)
		tap.ObserveChars(now, pkt)
	})
	if allocs > 0 {
		t.Fatalf("tap observation allocates %.1f/run, want 0", allocs)
	}
}

func TestPlaneSummaryRenders(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{SampleInterval: sim.Millisecond})
	tap := p.NewTap("sw0.p0", TapOptions{Flows: true})
	tap.ObserveChars(0, testPacket(macOf(1), macOf(2), 10))
	p.Stop() // flush
	s := p.Summary()
	for _, want := range []string{"flows exported", "sw0.p0", "cause=shutdown"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// ObserveRepeat must leave a tap exactly as the same bursts observed one at
// a time would: counters, packet reassembly, the gap detector and the event
// log, whether or not it takes the count-only path.
func TestTapObserveRepeatMatchesObserveChars(t *testing.T) {
	stop, gap := phy.ControlChar(myrinet.SymStop), phy.ControlChar(myrinet.SymGap)
	bursts := [][]phy.Character{
		{stop},
		{stop, phy.ControlChar(myrinet.SymGo), phy.ControlChar(0)},
		{gap},
		{phy.ControlChar(myrinet.SymReset)},
		append(phy.DataChars([]byte{1, 2, 3}), stop),
		testPacket(macOf(1), macOf(2), 10),
	}
	opts := []TapOptions{{}, {LatencyShift: true}, {Flows: true, Detect: true}}
	state := func(p *Plane, tap *Tap) string {
		var b strings.Builder
		bursts, chars, packets, control := tap.Stats()
		fmt.Fprintln(&b, bursts, chars, packets, control, tap.inPacket, tap.n, tap.buf, tap.pktBytes,
			tap.lastBurst, tap.haveBurst, tap.gapHot, p.Ring().Exported())
		if tap.gap != nil {
			fmt.Fprintf(&b, "%+v %+v\n", tap.gap.base, *tap.gap.recent)
		}
		for _, e := range p.Events() {
			fmt.Fprintln(&b, e)
		}
		return b.String()
	}
	for _, o := range opts {
		for _, burst := range bursts {
			for _, n := range []int{0, 1, 40} {
				var states [2]string
				for i := range states {
					k := sim.NewKernel(1)
					p := NewPlane(k, Config{})
					tap := p.NewTap("t", o)
					// A packet in progress and a baseline of gaps first.
					for j := range 40 {
						tap.ObserveChars(sim.Time(j)*sim.Microsecond, phy.DataChars([]byte{0x80}))
					}
					first, step := 50*sim.Microsecond, 100*sim.Nanosecond
					if i == 0 {
						tap.ObserveRepeat(first, step, n, burst)
					} else {
						for j := range n {
							tap.ObserveChars(first+sim.Time(j)*step, burst)
						}
					}
					states[i] = state(p, tap)
				}
				if states[0] != states[1] {
					t.Errorf("%+v, burst %v x%d:\nObserveRepeat: %s\nObserveChars:  %s", o, burst, n, states[0], states[1])
				}
			}
		}
	}
}
