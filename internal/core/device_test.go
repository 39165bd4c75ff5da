package core

import (
	"testing"

	"netfi/internal/monitor"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

const charPeriod = 12_500 * sim.Picosecond

type sink struct {
	k     *sim.Kernel
	chars []phy.Character
	times []sim.Time
}

func (s *sink) Receive(chars []phy.Character) {
	s.chars = append(s.chars, chars...)
	for range chars {
		s.times = append(s.times, s.k.Now())
	}
}

// spliceFixture builds left->right and right->left links with a device
// spliced in, and sinks at both ends.
func spliceFixture(t *testing.T, k *sim.Kernel) (*Device, *phy.Cable, *sink, *sink) {
	t.Helper()
	right := &sink{k: k}
	left := &sink{k: k}
	cfg := phy.LinkConfig{Name: "cable", CharPeriod: charPeriod, PropDelay: 5 * sim.Nanosecond}
	cable := phy.NewCable(k, cfg, left, right)
	dev := NewDevice(k, DeviceConfig{Name: "inj"})
	dev.Insert(cable)
	return dev, cable, left, right
}

func TestDevicePassThroughTransparency(t *testing.T) {
	// §3.5: both control and data characters transfer seamlessly; routes
	// map through in both directions.
	k := sim.NewKernel(1)
	_, cable, left, right := spliceFixture(t, k)
	msg := []phy.Character{
		phy.DataChar(0x81), phy.DataChar(0x00), phy.DataChar(0x04),
		phy.ControlChar(0x0C),
	}
	cable.LeftToRight.Send(msg)
	cable.RightToLeft.Send([]phy.Character{phy.DataChar(0x42), phy.ControlChar(0x0C)})
	k.Run()
	if len(right.chars) != 4 {
		t.Fatalf("right received %d chars, want 4", len(right.chars))
	}
	for i := range msg {
		if right.chars[i] != msg[i] {
			t.Errorf("char %d = %v, want %v", i, right.chars[i], msg[i])
		}
	}
	if len(left.chars) != 2 || left.chars[0] != phy.DataChar(0x42) {
		t.Errorf("left received %v", left.chars)
	}
}

func TestDeviceAddsFixedLatency(t *testing.T) {
	k := sim.NewKernel(1)
	// Reference: identical cable without a device.
	ref := &sink{k: k}
	cfg := phy.LinkConfig{Name: "ref", CharPeriod: charPeriod, PropDelay: 5 * sim.Nanosecond}
	refLink := phy.NewLink(k, cfg, ref)

	dev, cable, _, right := spliceFixture(t, k)
	payload := phy.DataChars(make([]byte, 64))
	refLink.Send(payload)
	cable.LeftToRight.Send(payload)
	k.Run()
	if len(right.times) == 0 || len(ref.times) == 0 {
		t.Fatal("no deliveries")
	}
	added := right.times[len(right.times)-1] - ref.times[len(ref.times)-1]
	if added != dev.Latency() {
		t.Errorf("added latency = %v, want %v", added, dev.Latency())
	}
	// The paper's footnote: ~250 ns at the default pipeline depth.
	if dev.Latency() != 250*sim.Nanosecond {
		t.Errorf("default latency = %v, want 250ns", dev.Latency())
	}
}

func TestDeviceNoThroughputImpact(t *testing.T) {
	// "The fault injector caused no observable impact on the data
	// transfer rate": n chars must take n*charPeriod + constant, not
	// n*(charPeriod+x).
	k := sim.NewKernel(1)
	_, cable, _, right := spliceFixture(t, k)
	const n = 10_000
	start := k.Now()
	for i := 0; i < n/100; i++ {
		cable.LeftToRight.Send(phy.DataChars(make([]byte, 100)))
	}
	k.Run()
	if len(right.chars) != n {
		t.Fatalf("received %d chars, want %d", len(right.chars), n)
	}
	elapsed := right.times[len(right.times)-1] - start
	wire := sim.Duration(n) * charPeriod
	overhead := elapsed - wire
	if overhead > 300*sim.Nanosecond {
		t.Errorf("per-stream overhead %v exceeds constant latency budget", overhead)
	}
}

func TestDeviceBidirectionalIndependence(t *testing.T) {
	// Different and independent commands on data traveling in different
	// directions (§3.3).
	k := sim.NewKernel(1)
	dev, cable, left, right := spliceFixture(t, k)
	dev.Engine(LeftToRight).Configure(Config{
		Match:       MatchOn,
		CompareData: [WindowSize]phy.Character{0, 0, 0, phy.DataChar(0x11)},
		CompareMask: [WindowSize]CharMask{0, 0, 0, MaskFull},
		Corrupt:     CorruptToggle,
		CorruptData: [WindowSize]phy.Character{0, 0, 0, 0xFF},
	})
	dev.Engine(RightToLeft).Configure(Config{
		Match:       MatchOn,
		CompareData: [WindowSize]phy.Character{0, 0, 0, phy.DataChar(0x22)},
		CompareMask: [WindowSize]CharMask{0, 0, 0, MaskFull},
		Corrupt:     CorruptToggle,
		CorruptData: [WindowSize]phy.Character{0, 0, 0, 0x0F},
	})
	cable.LeftToRight.Send(phy.DataChars([]byte{0x11, 0x22}))
	cable.RightToLeft.Send(phy.DataChars([]byte{0x11, 0x22}))
	k.Run()
	if right.chars[0].Byte() != 0xEE || right.chars[1].Byte() != 0x22 {
		t.Errorf("L2R corruption wrong: %v", right.chars)
	}
	if left.chars[0].Byte() != 0x11 || left.chars[1].Byte() != 0x2D {
		t.Errorf("R2L corruption wrong: %v", left.chars)
	}
}

func TestDeviceFlushReleasesPipelineOnQuietLink(t *testing.T) {
	k := sim.NewKernel(1)
	_, cable, _, right := spliceFixture(t, k)
	cable.LeftToRight.Send(phy.DataChars([]byte{1, 2, 3})) // fewer than slack
	k.Run()
	if len(right.chars) != 3 {
		t.Fatalf("flush did not release pipeline: got %d chars", len(right.chars))
	}
}

// TestDeviceTapCountsPairs: the §3.2 per-identifier statistics are a flow
// tap of the monitoring plane on the device's input stream.
func TestDeviceTapCountsPairs(t *testing.T) {
	k := sim.NewKernel(1)
	dev, cable, _, _ := spliceFixture(t, k)
	plane := monitor.NewPlane(k, monitor.Config{})
	tap := plane.NewTap("inj.L2R", monitor.TapOptions{Flows: true})
	dev.SetTap(LeftToRight, tap)
	// A minimal Myrinet data packet: route, type 0x0004, dst/src MACs.
	var dst, src [6]byte
	dst[5], src[5] = 0xBB, 0xAA
	wire := []byte{0x00, 0x00, 0x00, 0x00, 0x04}
	wire = append(wire, dst[:]...)
	wire = append(wire, src[:]...)
	wire = append(wire, 0x77) // crc placeholder; the tap doesn't verify
	chars := phy.DataChars(wire)
	chars = append(chars, phy.ControlChar(0x0C))
	cable.LeftToRight.Send(chars)
	cable.LeftToRight.Send(chars)
	k.Run()
	if _, _, packets, control := tap.Stats(); packets != 2 || control != 0 {
		t.Errorf("packets = %d/%d, want 2/0", packets, control)
	}
	plane.Stop() // export the open flows
	recs := plane.Ring().Records()
	if len(recs) != 1 || recs[0].Key != (monitor.FlowKey{Src: src, Dst: dst}) || recs[0].Packets != 2 {
		t.Errorf("flow records = %v, want one %x -> %x record of 2 packets", recs, src, dst)
	}
}

func TestDeviceInsertTwicePanics(t *testing.T) {
	k := sim.NewKernel(1)
	dev, cable, _, _ := spliceFixture(t, k)
	defer func() {
		if recover() == nil {
			t.Error("double insert did not panic")
		}
	}()
	dev.Insert(cable)
}

func TestDeviceOrderPreservedAcrossFlush(t *testing.T) {
	k := sim.NewKernel(1)
	_, cable, _, right := spliceFixture(t, k)
	cable.LeftToRight.Send(phy.DataChars([]byte{1, 2, 3}))
	// Let the flush fire, then send more.
	k.RunFor(sim.Microsecond)
	cable.LeftToRight.Send(phy.DataChars([]byte{4, 5}))
	k.Run()
	want := []byte{1, 2, 3, 4, 5}
	if len(right.chars) != len(want) {
		t.Fatalf("received %d chars, want %d", len(right.chars), len(want))
	}
	for i, b := range want {
		if right.chars[i].Byte() != b {
			t.Errorf("char %d = %v, want %d", i, right.chars[i], b)
		}
	}
}
