package host

import (
	"fmt"
	"testing"

	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// packetDropper is a wire tap that deletes the first N complete packet
// trains (data characters plus the terminating GAP) while passing flow
// control through untouched — a clean whole-datagram loss, the kind the
// recovery layer's retransmission exists to absorb.
type packetDropper struct {
	dst    phy.Receiver
	remain int
	inPkt  bool
}

func (d *packetDropper) Receive(chars []phy.Character) {
	out := make([]phy.Character, 0, len(chars))
	for _, c := range chars {
		if d.remain > 0 {
			if c.IsData() {
				d.inPkt = true
				continue
			}
			if myrinet.DecodeControl(c.Byte()) == myrinet.SymbolGap && d.inPkt {
				d.inPkt = false
				d.remain--
				continue
			}
		}
		out = append(out, c)
	}
	if len(out) > 0 {
		d.dst.Receive(out)
	}
}

// tapDrop inserts a packetDropper on n's outbound link.
func tapDrop(n *Node, remain int) *packetDropper {
	link := n.Interface().Controller().Out()
	d := &packetDropper{dst: link.Dst(), remain: remain}
	link.SetDst(d)
	return d
}

func reliablePair(t *testing.T, k *sim.Kernel, cfg ReliableConfig) (*Node, *Node, *Reliable, *Reliable) {
	t.Helper()
	a, b := twoNodeNet(t, k)
	ra, err := NewReliable(a, 7000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewReliable(b, 7000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, ra, rb
}

func TestReliableInOrderDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, ra, rb := reliablePair(t, k, ReliableConfig{})
	_ = a
	var got []string
	rb.SetHandler(func(src myrinet.MAC, data []byte) { got = append(got, string(data)) })
	for i := 0; i < 5; i++ {
		ra.Send(b.MAC(), []byte(fmt.Sprintf("msg-%d", i)))
	}
	k.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d messages, want 5: %v", len(got), got)
	}
	for i, m := range got {
		if m != fmt.Sprintf("msg-%d", i) {
			t.Errorf("got[%d] = %q", i, m)
		}
	}
	s := ra.Stats()
	if s.Delivered != 5 || s.Retransmits != 0 || s.GaveUp != 0 {
		t.Errorf("stats = %v", s)
	}
	if ra.Outstanding() != 0 {
		t.Errorf("Outstanding = %d, want 0", ra.Outstanding())
	}
	if ra.flows[b.MAC()].srtt == 0 {
		t.Error("no RTT estimate after clean round trips")
	}
}

func TestReliableRetransmitAfterDataLoss(t *testing.T) {
	k := sim.NewKernel(2)
	a, b, ra, rb := reliablePair(t, k, ReliableConfig{})
	tapDrop(a, 1) // eat the first data packet on the wire
	var got []string
	rb.SetHandler(func(src myrinet.MAC, data []byte) { got = append(got, string(data)) })
	ra.Send(b.MAC(), []byte("survives loss"))
	k.Run()
	if len(got) != 1 || got[0] != "survives loss" {
		t.Fatalf("delivered %v", got)
	}
	s := ra.Stats()
	if s.Retransmits == 0 {
		t.Error("no retransmits recorded after a dropped datagram")
	}
	if s.Delivered != 1 || s.GaveUp != 0 {
		t.Errorf("stats = %v", s)
	}
}

func TestReliableAckLossCausesDuplicate(t *testing.T) {
	k := sim.NewKernel(3)
	a, b, ra, rb := reliablePair(t, k, ReliableConfig{})
	tapDrop(b, 1) // eat the first ack; the retransmit arrives as a dup
	delivered := 0
	rb.SetHandler(func(src myrinet.MAC, data []byte) { delivered++ })
	_ = a
	ra.Send(b.MAC(), []byte("acked twice"))
	k.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly once", delivered)
	}
	if rb.Stats().DupsDropped == 0 {
		t.Error("receiver saw no duplicate after a lost ack")
	}
	if ra.Stats().Delivered != 1 {
		t.Errorf("sender stats = %v", ra.Stats())
	}
}

func TestReliableGivesUpOnDeadPath(t *testing.T) {
	k := sim.NewKernel(4)
	a, b, ra, rb := reliablePair(t, k, ReliableConfig{
		InitialRTO: sim.Millisecond,
		MaxRetries: 2,
	})
	tapDrop(a, 1000) // the path is dead
	rb.SetHandler(func(src myrinet.MAC, data []byte) { t.Error("unexpected delivery") })
	_ = a
	ra.Send(b.MAC(), []byte("into the void"))
	k.Run()
	s := ra.Stats()
	if s.GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1 (stats %v)", s.GaveUp, s)
	}
	if s.Retransmits != 2 {
		t.Errorf("Retransmits = %d, want MaxRetries=2", s.Retransmits)
	}
	if ra.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after give-up, want 0", ra.Outstanding())
	}
}

func TestReliableGiveUpThenRecoverFlow(t *testing.T) {
	// A flow that abandons one datagram must keep working for the next:
	// the receiver accepts the sequence gap.
	k := sim.NewKernel(5)
	a, b, ra, rb := reliablePair(t, k, ReliableConfig{
		InitialRTO: sim.Millisecond,
		MaxRetries: 1,
	})
	drop := tapDrop(a, 4) // first datagram + its retry + second's first two tries... tuned below
	drop.remain = 2       // exactly datagram 0 and its single retry
	var got []string
	rb.SetHandler(func(src myrinet.MAC, data []byte) { got = append(got, string(data)) })
	ra.Send(b.MAC(), []byte("lost forever"))
	ra.Send(b.MAC(), []byte("gets through"))
	k.Run()
	if len(got) != 1 || got[0] != "gets through" {
		t.Fatalf("delivered %v, want only the second datagram", got)
	}
	s := ra.Stats()
	if s.GaveUp != 1 || s.Delivered != 1 {
		t.Errorf("stats = %v", s)
	}
}

func TestReliableBackoffGrowsRTO(t *testing.T) {
	k := sim.NewKernel(6)
	a, b, ra, _ := reliablePair(t, k, ReliableConfig{
		InitialRTO: sim.Millisecond,
		MaxRTO:     64 * sim.Millisecond,
		MaxRetries: 4,
	})
	tapDrop(a, 1000)
	ra.Send(b.MAC(), []byte("x"))
	k.Run()
	if rto := ra.flows[b.MAC()].rto; rto <= sim.Millisecond {
		t.Errorf("RTO = %v after repeated timeouts, want exponential growth", rto)
	}
}

func TestReliableDeterministicPerSeed(t *testing.T) {
	run := func() (ReliableStats, sim.Time) {
		k := sim.NewKernel(42)
		a, b, ra, rb := reliablePair(t, k, ReliableConfig{})
		tapDrop(a, 2)
		rb.SetHandler(func(src myrinet.MAC, data []byte) {})
		for i := 0; i < 4; i++ {
			ra.Send(b.MAC(), []byte{byte(i)})
		}
		k.Run()
		return ra.Stats(), k.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Errorf("non-deterministic: %v@%v vs %v@%v", s1, t1, s2, t2)
	}
}

// The send queue is a ring whose slots keep their storage: messages queued
// behind a busy flow, some while the ring has wrapped and one that grows it
// mid-wrap, still go out in order, and once the ring has been as deep a
// round of sends and deliveries allocates nothing.
func TestReliableQueueRing(t *testing.T) {
	k := sim.NewKernel(3)
	_, b, ra, rb := reliablePair(t, k, ReliableConfig{})
	var got []string
	rb.SetHandler(func(src myrinet.MAC, data []byte) { got = append(got, string(data)) })
	send := func(from, to int) {
		for i := from; i < to; i++ {
			ra.Send(b.MAC(), []byte(fmt.Sprintf("msg-%d", i)))
		}
	}
	untilDelivered := func(n uint64) {
		for ra.Stats().Delivered < n && k.Step() {
		}
	}
	send(0, 4) // one in flight, a ring of three
	untilDelivered(2)
	send(4, 6) // wraps: the ring's head has moved on by two
	if f := ra.flows[b.MAC()]; f.qHead == 0 || f.qLen != len(f.queue) {
		t.Fatalf("ring head %d, %d of %d slots used: want a full, wrapped ring", f.qHead, f.qLen, len(f.queue))
	}
	send(6, 9) // grows the wrapped ring
	if n := ra.Outstanding(); n != 7 {
		t.Errorf("Outstanding = %d, want 7", n)
	}
	k.Run()
	if len(got) != 9 {
		t.Fatalf("delivered %d messages, want 9: %v", len(got), got)
	}
	for i, m := range got {
		if m != fmt.Sprintf("msg-%d", i) {
			t.Errorf("got[%d] = %q", i, m)
		}
	}

	rb.SetHandler(nil)
	msg := []byte("again")
	round := func() {
		for i := 0; i < 8; i++ {
			ra.Send(b.MAC(), msg)
		}
		k.Run()
	}
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Errorf("a round of 8 queued messages allocates %v objects, want 0", allocs)
	}
}
