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
	if tap.Detector().beats != 3 {
		t.Fatalf("detector heartbeats = %d, want 3", tap.Detector().beats)
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
	// Run() must terminate: the sampling clock parks at the horizon.
	k.Run()
	if k.Now() > sim.Time(10*sim.Millisecond) {
		t.Fatalf("kernel ran to %v, want <= 10ms", k.Now())
	}
	if p.Ticks() != 10 {
		t.Fatalf("ticks = %d, want 10", p.Ticks())
	}
}

// The plane samples exactly once per interval, on the interval grid from
// Start.
func TestPlanePeriodicPasses(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{SampleInterval: sim.Millisecond})
	var passes []sim.Time
	p.AddWedgeProbe("x", func() int {
		passes = append(passes, k.Now())
		return 0
	})
	p.Start()
	k.RunUntil(sim.Time(5*sim.Millisecond + sim.Microsecond))
	if len(passes) != 5 {
		t.Fatalf("%d passes, want 5", len(passes))
	}
	for i, at := range passes {
		if want := sim.Time(i+1) * sim.Time(sim.Millisecond); at != want {
			t.Fatalf("pass %d at %v, want %v", i, at, want)
		}
	}
	if p.Ticks() != 5 {
		t.Fatalf("ticks = %d, want 5", p.Ticks())
	}
}

// A plane parked at its horizon stays running, and moving the horizon out
// and starting again resumes sampling.
func TestPlaneStopHorizonDrains(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{SampleInterval: sim.Millisecond})
	p.SetStopAt(sim.Time(4 * sim.Millisecond))
	p.Start()
	// Run() terminates only if the plane parks itself at the horizon.
	k.Run()
	if p.Ticks() != 4 || k.Now() != sim.Time(4*sim.Millisecond) {
		t.Fatalf("ticks = %d at %v, want 4 at 4ms (passes at 1..4 ms)", p.Ticks(), k.Now())
	}
	if p.timer.Armed() {
		t.Fatal("sampling clock armed past the horizon")
	}
	if !p.running {
		t.Fatal("a parked plane should still be running")
	}
	p.SetStopAt(sim.Time(6 * sim.Millisecond))
	p.Start()
	k.Run()
	if p.Ticks() != 6 || k.Now() != sim.Time(6*sim.Millisecond) {
		t.Fatalf("after the horizon moved: ticks = %d at %v, want 6 at 6ms", p.Ticks(), k.Now())
	}
}

// A pass that stops the plane arms no further pass, and a later Start
// samples again on the interval grid from that Start.
func TestPlaneStopThenStart(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{SampleInterval: sim.Millisecond})
	var passes []sim.Time
	p.AddWedgeProbe("x", func() int {
		passes = append(passes, k.Now())
		if len(passes) == 3 {
			p.Stop()
		}
		return 0
	})
	p.Start()
	p.Start() // starting a running plane arms nothing more
	// Run() terminates only if the pass that stopped the plane re-armed nothing.
	k.Run()
	if p.Ticks() != 3 || k.Now() != sim.Time(3*sim.Millisecond) {
		t.Fatalf("stopped from a pass: ticks = %d at %v, want 3 at 3ms", p.Ticks(), k.Now())
	}
	k.RunUntil(sim.Time(10 * sim.Millisecond))
	p.Start()
	k.RunUntil(sim.Time(12*sim.Millisecond + sim.Microsecond))
	p.Stop()
	k.Run()
	want := []sim.Time{1, 2, 3, 11, 12}
	if len(passes) != len(want) {
		t.Fatalf("passes at %v, want %v ms", passes, want)
	}
	for i, at := range passes {
		if at != want[i]*sim.Time(sim.Millisecond) {
			t.Fatalf("passes at %v, want %v ms", passes, want)
		}
	}
	if p.Ticks() != 5 {
		t.Fatalf("ticks = %d, want 5", p.Ticks())
	}
}

func TestPlaneSamplingAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{SampleInterval: sim.Microsecond})
	p.AddLossProbe("x", func() uint64 { return 0 })
	p.Start()
	k.RunFor(10 * sim.Microsecond) // warm the wheel
	allocs := testing.AllocsPerRun(100, func() {
		k.RunFor(10 * sim.Microsecond)
	})
	if allocs > 0 {
		t.Fatalf("sampling allocates %.1f/run, want 0", allocs)
	}
}

func TestTapObserveAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{})
	tap := p.NewTap("t", TapOptions{Flows: true, Detect: true})
	pkt := testPacket(macOf(1), macOf(2), 20)
	now := sim.Time(0)
	// Warm: open the flow, fill the detector's window.
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

// ObserveRepeat must leave a tap exactly as the same bursts observed one at
// a time would: counters, packet reassembly, flow exports and the event
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
	opts := []TapOptions{{}, {Flows: true, Detect: true}}
	state := func(p *Plane, tap *Tap) string {
		var b strings.Builder
		bursts, chars, packets, control := tap.Stats()
		fmt.Fprintln(&b, bursts, chars, packets, control, tap.inPacket, tap.n, tap.buf, tap.pktBytes,
			p.Ring().Exported())
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
					// A packet in progress first.
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
