package sim

import (
	"testing"
)

func TestPeekNext(t *testing.T) {
	k := NewKernel(1)
	if _, ok := k.PeekNext(); ok {
		t.Fatal("empty kernel reported a pending event")
	}
	k.At(40*Nanosecond, func() {})
	k.At(10*Nanosecond, func() {})
	at, ok := k.PeekNext()
	if !ok || at != 10*Nanosecond {
		t.Fatalf("PeekNext = %v, %v; want 10ns, true", at, ok)
	}
	// Peeking must not execute or advance anything.
	if k.Processed() != 0 || k.Now() != 0 {
		t.Fatalf("peek had side effects: processed=%d now=%v", k.Processed(), k.Now())
	}
}

func TestShardGroupDrains(t *testing.T) {
	kernels := []*Kernel{NewKernel(1), NewKernel(2), NewKernel(3)}
	var fired []int
	for i, k := range kernels {
		i := i
		k.At(Time(i+1)*100*Nanosecond, func() { fired = append(fired, i) })
	}
	g := NewShardGroup(kernels, 50*Nanosecond)
	defer g.Close()
	if !g.Run(Second) {
		t.Fatal("group did not drain")
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if g.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", g.Processed())
	}
	// All clocks align at the last window's horizon.
	now := kernels[0].Now()
	for i, k := range kernels {
		if k.Now() != now {
			t.Fatalf("kernel %d clock %v != kernel 0 clock %v", i, k.Now(), now)
		}
	}
}

func TestShardGroupLimit(t *testing.T) {
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	ran := false
	kernels[0].At(10*Microsecond, func() { ran = true })
	g := NewShardGroup(kernels, 100*Nanosecond)
	defer g.Close()
	if g.Run(Microsecond) {
		t.Fatal("group claimed to drain with an event pending beyond the limit")
	}
	if ran {
		t.Fatal("event beyond the limit executed")
	}
	for i, k := range kernels {
		if k.Now() != Microsecond {
			t.Fatalf("kernel %d clock %v, want limit %v", i, k.Now(), Time(Microsecond))
		}
		if i == 0 && k.Pending() != 1 {
			t.Fatalf("kernel 0 pending %d, want 1", k.Pending())
		}
	}
	// Resuming past the event finishes the job.
	if !g.Run(20 * Microsecond) {
		t.Fatal("resumed run did not drain")
	}
	if !ran {
		t.Fatal("event never executed")
	}
}

func TestShardGroupWindowSchedule(t *testing.T) {
	// Events at 0ns, 10ns, 100ns on different kernels with a 50ns
	// lookahead: window 1 anchors at 0 and covers [0, 49], absorbing the
	// 10ns event; window 2 anchors at 100. The schedule is a pure
	// function of the union of events, not of their placement.
	for _, split := range [][]int{{0, 0, 0}, {0, 1, 0}, {1, 0, 1}} {
		kernels := []*Kernel{NewKernel(1), NewKernel(2)}
		times := []Time{0, 10 * Nanosecond, 100 * Nanosecond}
		for i, at := range times {
			kernels[split[i]].At(at, func() {})
		}
		g := NewShardGroup(kernels, 50*Nanosecond)
		if !g.Run(Second) {
			t.Fatal("did not drain")
		}
		if g.Windows() != 2 {
			t.Fatalf("split %v: %d windows, want 2", split, g.Windows())
		}
		g.Close()
	}
}

// TestShardGroupExchange wires a minimal cross-shard channel: each executed
// event on kernel 0 buffers a message that the exchange hook injects into
// kernel 1 at send time + lookahead. The injection must never land in a
// peer's past (the kernel would panic), and each message must make exactly
// one barrier crossing.
func TestShardGroupExchange(t *testing.T) {
	const lookahead = 50 * Nanosecond
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	type msg struct{ at Time }
	var outbox []msg
	received := 0
	var send func()
	sends := 0
	send = func() {
		outbox = append(outbox, msg{at: kernels[0].Now() + lookahead})
		if sends++; sends < 5 {
			kernels[0].After(7*Nanosecond, send)
		}
	}
	kernels[0].At(0, send)
	g := NewShardGroup(kernels, lookahead)
	defer g.Close()
	g.SetExchange(func(Time) int {
		n := len(outbox)
		for _, m := range outbox {
			m := m
			kernels[1].At(m.at, func() { received++ })
		}
		outbox = outbox[:0]
		return n
	})
	if !g.Run(Second) {
		t.Fatal("did not drain")
	}
	if received != 5 {
		t.Fatalf("received %d messages, want 5", received)
	}
	if g.Exchanged() != 5 {
		t.Fatalf("Exchanged = %d, want 5", g.Exchanged())
	}
}

func TestShardGroupSingle(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.At(10*Nanosecond, func() { n++ })
	g := NewShardGroup([]*Kernel{k}, 20*Nanosecond)
	defer g.Close()
	if !g.Run(Second) || n != 1 {
		t.Fatalf("single-shard run: n=%d", n)
	}
}

func TestShardGroupValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("no kernels", func() { NewShardGroup(nil, Nanosecond) })
	mustPanic("zero lookahead", func() { NewShardGroup([]*Kernel{NewKernel(1)}, 0) })
}
