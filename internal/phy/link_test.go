package phy

import (
	"testing"
	"testing/quick"

	"netfi/internal/sim"
)

const charPeriod = 12_500 * sim.Picosecond // 12.5 ns at 80 MB/s

type collector struct {
	bursts [][]Character
	times  []sim.Time
	k      *sim.Kernel
}

func (c *collector) Receive(chars []Character) {
	c.bursts = append(c.bursts, chars)
	c.times = append(c.times, c.k.Now())
}

func newTestLink(t *testing.T, prop sim.Duration) (*sim.Kernel, *Link, *collector) {
	t.Helper()
	k := sim.NewKernel(1)
	c := &collector{k: k}
	l := NewLink(k, LinkConfig{Name: "test", CharPeriod: charPeriod, PropDelay: prop}, c)
	return k, l, c
}

func TestCharacterDataControl(t *testing.T) {
	d := DataChar(0x0F)
	if !d.IsData() || d.Byte() != 0x0F {
		t.Errorf("DataChar(0x0F) = %v", d)
	}
	c := ControlChar(0x0F)
	if c.IsData() || c.Byte() != 0x0F {
		t.Errorf("ControlChar(0x0F) = %v", c)
	}
	if d == c {
		t.Error("data and control characters with the same byte must differ (separate D/C bit)")
	}
	if got := d.String(); got != "D:0f" {
		t.Errorf("String() = %q, want D:0f", got)
	}
	if got := c.String(); got != "C:0f" {
		t.Errorf("String() = %q, want C:0f", got)
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	prop := 5 * sim.Nanosecond
	k, l, c := newTestLink(t, prop)
	arrival := l.Send(DataChars([]byte{1, 2, 3, 4}))
	want := 4*charPeriod + prop
	if arrival != want {
		t.Fatalf("Send returned arrival %v, want %v", arrival, want)
	}
	k.Run()
	if len(c.bursts) != 1 {
		t.Fatalf("got %d bursts, want 1", len(c.bursts))
	}
	if c.times[0] != want {
		t.Errorf("delivered at %v, want %v", c.times[0], want)
	}
}

func TestLinkSerializesBackToBackBursts(t *testing.T) {
	k, l, c := newTestLink(t, 0)
	l.Send(DataChars([]byte{1, 2}))
	l.Send(DataChars([]byte{3}))
	k.Run()
	if len(c.times) != 2 {
		t.Fatalf("got %d bursts, want 2", len(c.times))
	}
	if c.times[0] != 2*charPeriod {
		t.Errorf("first burst at %v, want %v", c.times[0], 2*charPeriod)
	}
	if c.times[1] != 3*charPeriod {
		t.Errorf("second burst at %v, want %v (queued behind first)", c.times[1], 3*charPeriod)
	}
}

func TestLinkPreservesContentAndOrder(t *testing.T) {
	k, l, c := newTestLink(t, 0)
	l.Send([]Character{ControlChar(0x0C)})
	l.Send(DataChars([]byte{0xDE, 0xAD}))
	k.Run()
	if len(c.bursts) != 2 {
		t.Fatalf("got %d bursts, want 2", len(c.bursts))
	}
	if c.bursts[0][0] != ControlChar(0x0C) {
		t.Errorf("burst 0 = %v, want GAP control char", c.bursts[0])
	}
	if c.bursts[1][0] != DataChar(0xDE) || c.bursts[1][1] != DataChar(0xAD) {
		t.Errorf("burst 1 = %v", c.bursts[1])
	}
}

func TestLinkCopiesCallerBuffer(t *testing.T) {
	k, l, c := newTestLink(t, 0)
	buf := DataChars([]byte{1, 2, 3})
	l.Send(buf)
	buf[0] = ControlChar(0xFF) // caller reuses buffer before delivery
	k.Run()
	if c.bursts[0][0] != DataChar(1) {
		t.Error("link did not copy the caller's buffer")
	}
}

func TestLinkEmptySendIsNoOp(t *testing.T) {
	k, l, c := newTestLink(t, 0)
	if got := l.Send(nil); got != 0 {
		t.Errorf("empty Send arrival = %v, want now (0)", got)
	}
	k.Run()
	if len(c.bursts) != 0 {
		t.Error("empty send delivered a burst")
	}
}

func TestLinkStats(t *testing.T) {
	k, l, _ := newTestLink(t, 0)
	l.Send(DataChars([]byte{1, 2, 3}))
	l.Send(DataChars([]byte{4}))
	k.Run()
	chars, bursts := l.Stats()
	if chars != 4 || bursts != 2 {
		t.Errorf("Stats() = (%d,%d), want (4,2)", chars, bursts)
	}
}

func TestLinkIdle(t *testing.T) {
	k, l, _ := newTestLink(t, 0)
	idle := func() bool { return l.BusyUntil() <= k.Now() }
	if !idle() {
		t.Error("new link not idle")
	}
	l.Send(DataChars([]byte{1}))
	if idle() {
		t.Error("link idle while serializing")
	}
	k.Run()
	if !idle() {
		t.Error("link not idle after drain")
	}
}

func TestLinkSetDstRewires(t *testing.T) {
	k, l, c := newTestLink(t, 0)
	c2 := &collector{k: k}
	l.SetDst(c2)
	l.Send(DataChars([]byte{9}))
	k.Run()
	if len(c.bursts) != 0 || len(c2.bursts) != 1 {
		t.Error("SetDst did not rewire delivery")
	}
}

func TestLinkConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero CharPeriod", func() {
		NewLink(k, LinkConfig{CharPeriod: 0}, ReceiverFunc(func([]Character) {}))
	})
	mustPanic("negative PropDelay", func() {
		NewLink(k, LinkConfig{CharPeriod: 1, PropDelay: -1}, ReceiverFunc(func([]Character) {}))
	})
	mustPanic("nil dst", func() { NewLink(k, LinkConfig{CharPeriod: 1}, nil) })
}

func TestCableBothDirections(t *testing.T) {
	k := sim.NewKernel(1)
	left := &collector{k: k}
	right := &collector{k: k}
	cable := NewCable(k, LinkConfig{Name: "c", CharPeriod: charPeriod}, left, right)
	cable.LeftToRight.Send(DataChars([]byte{1}))
	cable.RightToLeft.Send(DataChars([]byte{2}))
	k.Run()
	if len(right.bursts) != 1 || right.bursts[0][0].Byte() != 1 {
		t.Error("left-to-right direction failed")
	}
	if len(left.bursts) != 1 || left.bursts[0][0].Byte() != 2 {
		t.Error("right-to-left direction failed")
	}
	if cable.LeftToRight.Name() != "c:l2r" || cable.RightToLeft.Name() != "c:r2l" {
		t.Errorf("cable link names = %q, %q", cable.LeftToRight.Name(), cable.RightToLeft.Name())
	}
}

// Property: total delivery time for any sequence of bursts equals
// (total characters)*charPeriod + propDelay, i.e. the link never creates or
// destroys characters and keeps the wire contiguous under back-to-back load.
func TestLinkConservationProperty(t *testing.T) {
	prop := func(sizes []uint8) bool {
		k := sim.NewKernel(1)
		c := &collector{k: k}
		l := NewLink(k, LinkConfig{Name: "p", CharPeriod: charPeriod, PropDelay: 7 * sim.Nanosecond}, c)
		total := 0
		sent := 0
		for _, s := range sizes {
			n := int(s%32) + 1
			l.Send(DataChars(make([]byte, n)))
			total += n
			sent++
		}
		k.Run()
		got := 0
		for _, b := range c.bursts {
			got += len(b)
		}
		if got != total || len(c.bursts) != sent {
			return false
		}
		if sent == 0 {
			return true
		}
		last := c.times[len(c.times)-1]
		want := sim.Duration(total)*charPeriod + 7*sim.Nanosecond
		return last == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
