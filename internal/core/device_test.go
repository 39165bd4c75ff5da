package core

import (
	"math/rand"
	"reflect"
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

// delivery is one burst a recorder received: when, and what.
type delivery struct {
	at    sim.Time
	chars []phy.Character
}

// recorder keeps every delivery with its boundaries.
// spliceL2R splices dev into a new cable that delivers left to right into
// dst and returns that direction's link; nothing travels right to left.
func spliceL2R(k *sim.Kernel, dev *Device, cfg phy.LinkConfig, dst phy.Receiver) *phy.Link {
	cable := phy.NewCable(k, cfg, phy.ReceiverFunc(func([]phy.Character) {}), dst)
	dev.Insert(cable)
	return cable.LeftToRight
}

type recorder struct {
	k   *sim.Kernel
	got []delivery
}

func (r *recorder) Receive(chars []phy.Character) {
	r.got = append(r.got, delivery{r.k.Now(), append([]phy.Character(nil), chars...)})
}

// releasedChar is one character leaving the pipeline in the reference
// model: its wire entry time and the time it was released.
type releasedChar struct {
	ch          phy.Character
	entry, exit sim.Time
}

// referenceRelease replays the bursts that arrived at a port through a
// model of the constant-delay pipeline: a FIFO of slack characters, idle
// fill for a quiet wire while characters are held back, and a flush one
// pipeline time after the last burst. It returns each release (one engine
// output) with every character's entry and exit time, exit being entry +
// latency, never before the release.
func referenceRelease(arrivals []delivery, slack int, period, latency sim.Duration, idle phy.Character) [][]releasedChar {
	var (
		fifo    []releasedChar
		out     [][]releasedChar
		lastEnd sim.Time
	)
	release := func(now sim.Time, keep int) {
		if len(fifo) <= keep {
			return
		}
		n := len(fifo) - keep
		rel := append([]releasedChar(nil), fifo[:n]...)
		for i := range rel {
			rel[i].exit = max(rel[i].entry+latency, now)
		}
		fifo = fifo[n:]
		out = append(out, rel)
	}
	push := func(ch phy.Character, entry sim.Time) {
		fifo = append(fifo, releasedChar{ch: ch, entry: entry})
	}
	flushAt := sim.Time(-1)
	for _, a := range arrivals {
		if flushAt >= 0 && flushAt < a.at {
			release(flushAt, 0)
		}
		start := a.at - sim.Duration(len(a.chars))*period
		if len(fifo) > 0 && start > lastEnd {
			n := int((start - lastEnd) / period)
			for i := 0; i < n; i++ {
				push(idle, lastEnd+sim.Duration(i+1)*period)
			}
			release(a.at, slack)
		}
		lastEnd = max(lastEnd, a.at)
		for i, ch := range a.chars {
			push(ch, start+sim.Duration(i+1)*period)
		}
		release(a.at, slack)
		flushAt = -1
		if len(fifo) > 0 {
			flushAt = a.at + sim.Duration(slack)*period
		}
	}
	if flushAt >= 0 {
		release(flushAt, 0)
	}
	return out
}

// parentDeliveries applies the release rule the injector had before idle
// runs rode with the next delivery: a data run leaves at its last
// character's exit time, every control character alone at its own.
func parentDeliveries(releases [][]releasedChar) []delivery {
	var out []delivery
	for _, rel := range releases {
		for i := 0; i < len(rel); {
			j := i + 1
			if rel[i].ch.IsData() {
				for j < len(rel) && rel[j].ch.IsData() {
					j++
				}
			}
			d := delivery{at: rel[j-1].exit}
			for ; i < j; i++ {
				d.chars = append(d.chars, rel[i].ch)
			}
			out = append(out, d)
		}
	}
	return out
}

// TestDeviceReleaseTiming feeds random traffic — data runs, flow-control
// and framing symbols, unknown codes, quiet gaps shorter and longer than
// the pipeline — through a spliced device and checks every delivery
// against a model of the pipeline: the stream is the engine's output, no
// character is early, every control symbol other than IDLE leaves at
// exactly its exit time as the last character of its delivery, data runs
// leave when they always did, and only a control-character idle rides
// with the delivery after it.
func TestDeviceReleaseTiming(t *testing.T) {
	controls := []phy.Character{
		phy.ControlChar(0x0F), phy.ControlChar(0x03), phy.ControlChar(0x0C),
		phy.ControlChar(LinkResetCode), phy.ControlChar(0x00), phy.ControlChar(0x77),
	}
	for _, tc := range []struct {
		name string
		idle phy.Character
	}{
		{"myrinet", phy.ControlChar(0x00)},
		{"fibrechannel", phy.DataChar(0xB5)}, // a data code group the far port ignores
	} {
		t.Run(tc.name, func(t *testing.T) {
			rides := 0 // idle deliveries folded into the next one
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				k := sim.NewKernel(seed)
				rec := &recorder{k: k}
				extra := sim.Duration(rng.Intn(3)) * 7 * sim.Nanosecond
				dev := NewDevice(k, DeviceConfig{Name: "inj", ExtraLatency: extra, IdleChar: tc.idle})
				link := spliceL2R(k, dev, phy.LinkConfig{Name: "wire", CharPeriod: charPeriod, PropDelay: 5 * sim.Nanosecond}, rec)
				port := link.Dst()
				var arrivals []delivery
				link.SetDst(phy.ReceiverFunc(func(chars []phy.Character) {
					arrivals = append(arrivals, delivery{k.Now(), append([]phy.Character(nil), chars...)})
					port.Receive(chars)
				}))

				pipeline := sim.Duration(DefaultSlackChars) * charPeriod
				at := sim.Time(0)
				for b := 0; b < 60; b++ {
					var burst []phy.Character
					for n := 1 + rng.Intn(4); n > 0; n-- {
						if rng.Intn(3) == 0 {
							burst = append(burst, controls[rng.Intn(len(controls))])
							continue
						}
						for m := 1 + rng.Intn(40); m > 0; m-- {
							burst = append(burst, phy.DataChar(byte(rng.Intn(256))))
						}
					}
					// A quiet gap after the burst: none, shorter than
					// the pipeline, or longer; off the character grid so
					// no arrival ties with a flush.
					var gap sim.Duration
					if rng.Intn(4) > 0 {
						gap = sim.Duration(rng.Int63n(int64(3*pipeline))) | 1
					} else if len(burst) == DefaultSlackChars {
						burst = burst[1:]
					}
					k.At(at, func() { link.Send(burst) })
					at += sim.Duration(len(burst))*charPeriod + gap
				}
				k.Run()

				releases := referenceRelease(arrivals, DefaultSlackChars, charPeriod, dev.Latency(), tc.idle)
				var want []releasedChar
				for _, rel := range releases {
					want = append(want, rel...)
				}
				parentRule := parentDeliveries(releases)
				var parent []sim.Time // each character's time under the parent rule
				for _, d := range parentRule {
					for range d.chars {
						parent = append(parent, d.at)
					}
				}
				i := 0
				for _, d := range rec.got {
					for j, ch := range d.chars {
						if i >= len(want) {
							t.Fatalf("seed %d: received more than the %d characters released", seed, len(want))
						}
						w := want[i]
						if ch != w.ch {
							t.Fatalf("seed %d: char %d = %v, engine released %v", seed, i, ch, w.ch)
						}
						if d.at < w.entry+dev.Latency() {
							t.Fatalf("seed %d: char %d (%v) arrived at %v, before entry+latency %v", seed, i, ch, d.at, w.entry+dev.Latency())
						}
						if ch.IsData() && d.at != parent[i] {
							t.Fatalf("seed %d: data char %d arrived at %v, the parent rule delivers it at %v", seed, i, d.at, parent[i])
						}
						if !ch.IsData() && ch != tc.idle {
							if d.at != w.exit || j != len(d.chars)-1 {
								t.Fatalf("seed %d: control %v (char %d) arrived at %v as %d of %d, want %v as the last", seed, ch, i, d.at, j+1, len(d.chars), w.exit)
							}
						}
						if j == len(d.chars)-1 && d.at != w.exit {
							t.Fatalf("seed %d: delivery ending at char %d left at %v, its exit time is %v", seed, i, d.at, w.exit)
						}
						i++
					}
				}
				if i != len(want) {
					t.Fatalf("seed %d: received %d characters, engine released %d", seed, i, len(want))
				}
				if tc.idle.IsData() {
					// A data-character idle batches as data: the
					// deliveries are exactly the parent's.
					if !reflect.DeepEqual(rec.got, parentRule) {
						t.Fatalf("seed %d: deliveries differ from the parent rule's", seed)
					}
				} else {
					rides += len(parentRule) - len(rec.got)
				}
			}
			if !tc.idle.IsData() && rides == 0 {
				t.Error("no idle run rode with a later delivery: the traffic does not exercise the rule")
			}
		})
	}
}
