package phy

import (
	"testing"

	"netfi/internal/sim"
)

// Steady-state barrier exchange is per-window overhead in a sharded
// fabric: after the delivery and event pools warm up and the outbox
// backing arrays reach their working size, a buffer/exchange/execute cycle
// must not allocate at all.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	set := NewExchangeSet(2)
	endA := NewChannelEnd(set.Box(0), k, 2)
	endB := NewChannelEnd(set.Box(1), k, 3)
	sink := &releasingSink{}
	cycle := func() {
		base := k.Now()
		for i := 0; i < 8; i++ {
			endA.Deliver(base+sim.Time(i+1), sink, GetBurst(16))
			endB.Deliver(base+sim.Time(i+1), sink, GetBurst(16))
		}
		if n := set.Exchange(); n != 16 {
			t.Fatalf("exchange moved %d deliveries, want 16", n)
		}
		k.Run()
	}
	for i := 0; i < 50; i++ {
		cycle() // warm the pools and the pending arrays
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("steady-state exchange allocates %.2f objects/op, want 0", avg)
	}
	if sink.chars == 0 {
		t.Fatal("sink received nothing")
	}
}

// An exchange with nothing buffered moves nothing and allocates nothing:
// each empty outbox costs one length check.
func TestExchangeEmptySkip(t *testing.T) {
	set := NewExchangeSet(4)
	if avg := testing.AllocsPerRun(100, func() {
		if set.Exchange() != 0 {
			t.Fatal("empty exchange moved deliveries")
		}
	}); avg != 0 {
		t.Errorf("empty exchange allocates %.2f objects/op, want 0", avg)
	}
}

// A traffic burst balloons an outbox's pending array; sustained light
// traffic afterwards must shrink it back instead of pinning the high-water
// capacity forever.
func TestOutboxShrinksAfterBurst(t *testing.T) {
	k := sim.NewKernel(1)
	set := NewExchangeSet(1)
	end := NewChannelEnd(set.Box(0), k, 0)
	sink := &releasingSink{}
	deliver := func(n int) {
		base := k.Now()
		for i := 0; i < n; i++ {
			end.Deliver(base+sim.Time(i+1), sink, GetBurst(16))
		}
		set.Exchange()
		k.Run()
	}
	deliver(512)
	grown := cap(set.Box(0).pending)
	if grown < 512 {
		t.Fatalf("burst did not grow the pending array (cap %d)", grown)
	}
	for i := 0; i < 200; i++ {
		deliver(1)
	}
	if c := cap(set.Box(0).pending); c >= grown {
		t.Errorf("pending cap %d did not shrink from burst high-water %d", c, grown)
	}
}

// A periodically bursty exchange — one large drain, then a run of small
// ones — must hold its outbox at the burst's size: shrinking during the
// quiet run and regrowing at the next burst would allocate every period.
func TestOutboxSteadyUnderBurstyLoad(t *testing.T) {
	k := sim.NewKernel(1)
	set := NewExchangeSet(1)
	end := NewChannelEnd(set.Box(0), k, 0)
	sink := &releasingSink{}
	deliver := func(n int) {
		base := k.Now()
		for i := 0; i < n; i++ {
			end.Deliver(base+sim.Time(i+1), sink, GetBurst(16))
		}
		set.Exchange()
		k.Run()
	}
	cycle := func() {
		deliver(300)
		for i := 0; i < 20; i++ {
			deliver(1)
		}
	}
	cycle() // warm the pools, the kernel and the pending array
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("bursty exchange cycle allocates %.2f objects, want 0 (pending cap %d)",
			avg, cap(set.Box(0).pending))
	}
}

// DirectEnd must reproduce the exchange path's event ordering: same-time
// deliveries fire in (rank, seq) order no matter how they were scheduled,
// and external deliveries fire before local events at the same timestamp.
func TestDirectEndOrdering(t *testing.T) {
	k := sim.NewKernel(1)
	var order []int
	tag := func(id int) Receiver {
		return ReceiverFunc(func(chars []Character) {
			order = append(order, id)
			ReleaseBurst(chars)
		})
	}
	at := sim.Time(100)
	hi := NewDirectEnd(k, 9)
	lo := NewDirectEnd(k, 4)
	k.At(at, func() { order = append(order, 99) }) // local: fires after externals
	hi.Deliver(at, tag(2), GetBurst(8))
	hi.Deliver(at, tag(3), GetBurst(8)) // same rank: seq breaks the tie
	lo.Deliver(at, tag(1), GetBurst(8))
	k.Run()
	want := []int{1, 2, 3, 99}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A window that ran to horizon h cannot have sent a delivery arriving at or
// before h: every delivery spends at least the lookahead in flight from an
// event at or after the window's start. ExchangeAfter holds the shard group
// to that invariant, so a horizon drawn too wide panics at the first
// barrier that carries traffic instead of reordering events silently.
func TestExchangeAfterPanicsAtHorizon(t *testing.T) {
	k := sim.NewKernel(1)
	set := NewExchangeSet(1)
	end := NewChannelEnd(set.Box(0), k, 0)
	sink := &releasingSink{}
	const horizon = 10 * sim.Nanosecond
	end.Deliver(horizon+1, sink, GetBurst(16))
	if n := set.ExchangeAfter(horizon); n != 1 {
		t.Fatalf("a delivery beyond the horizon: exchange moved %d, want 1", n)
	}
	k.Run()
	for _, at := range []sim.Time{horizon, horizon - 1} {
		end.Deliver(at, sink, GetBurst(16))
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("a delivery arriving at %v with the horizon at %v did not panic", at, horizon)
				}
			}()
			set.ExchangeAfter(horizon)
		}()
		set.Box(0).pending = set.Box(0).pending[:0]
	}
}
