package myrinet

import (
	"runtime"
	"testing"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

// The receive-cycle pins run in both ownership regimes. "kernel": the
// burst comes from the kernel's pool and the controller's transmissions are
// released back into it, as inside a test bed. "depot": both sides use the
// package-level functions, as the benchmark ladder and kernel-less callers
// do, so every buffer crosses between the depot and the kernel's pool.
var receiveRegimes = []struct {
	name string
	sink func(*sim.Kernel) phy.Receiver
	get  func(*sim.Kernel, int) []phy.Character
}{
	{
		name: "kernel",
		sink: func(k *sim.Kernel) phy.Receiver { return phy.ReceiverFunc(phy.PoolOf(k).Release) },
		get:  func(k *sim.Kernel, n int) []phy.Character { return phy.PoolOf(k).Get(n) },
	},
	{
		name: "depot",
		sink: func(*sim.Kernel) phy.Receiver { return phy.ReceiverFunc(phy.ReleaseBurst) },
		get:  func(_ *sim.Kernel, n int) []phy.Character { return phy.GetBurst(n) },
	},
}

// allocTap is a minimal monitoring tap: it looks at every character without
// retaining the slice, the contract real taps follow.
type allocTap struct {
	chars  uint64
	bursts uint64
}

func (t *allocTap) ObserveChars(_ sim.Time, chars []phy.Character) {
	t.bursts++
	t.chars += uint64(len(chars))
}

func receiveCycleController(k *sim.Kernel, sink phy.Receiver) *LinkController {
	out := phy.NewLink(k, phy.LinkConfig{
		Name:       "alloc.out",
		CharPeriod: 12_500 * sim.Picosecond,
		PropDelay:  5 * sim.Nanosecond,
	}, sink)
	return NewLinkController(k, LinkControllerConfig{
		Name:     "alloc.lc",
		Out:      out,
		Counters: NewCounters(),
	})
}

// runReceiveCycle delivers one pooled data burst to lc and drains the slack
// so watermarks never trip.
func runReceiveCycle(k *sim.Kernel, lc *LinkController, burst []phy.Character) {
	for i := range burst {
		burst[i] = phy.DataChar(0x55)
	}
	lc.Receive(burst) // Receive releases the burst
	lc.Discard(lc.Buffered())
	k.Run()
}

// The satellite guard for the monitoring plane: a controller WITHOUT a tap
// must stay exactly as allocation-free as before the tap hook existed —
// monitoring off costs one nil check and nothing else.
func TestReceiveNoTapZeroAlloc(t *testing.T) {
	for _, r := range receiveRegimes {
		t.Run(r.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			lc := receiveCycleController(k, r.sink(k))
			cycle := func() { runReceiveCycle(k, lc, r.get(k, 32)) }
			for i := 0; i < 100; i++ {
				cycle() // warm pools
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Errorf("untapped receive cycle allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// With a (well-behaved) tap attached the cycle must still be
// allocation-free: taps observe batches in place.
func TestReceiveTappedZeroAlloc(t *testing.T) {
	for _, r := range receiveRegimes {
		t.Run(r.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			lc := receiveCycleController(k, r.sink(k))
			tap := &allocTap{}
			lc.SetTap(tap)
			cycle := func() { runReceiveCycle(k, lc, r.get(k, 32)) }
			for i := 0; i < 100; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Errorf("tapped receive cycle allocates %.2f objects/op, want 0", avg)
			}
			if tap.bursts == 0 || tap.chars == 0 {
				t.Fatal("tap observed nothing")
			}
		})
	}
}

// A controller fed from the shared depot a million times releases every
// burst into its kernel's pool. The pool's lists stop at their cap and spill
// back, so the producer keeps drawing recycled buffers: the heap stays flat
// where an unbounded kernel-local list would have grown by a buffer per call.
func TestReceiveFromDepotHeapFlat(t *testing.T) {
	k := sim.NewKernel(1)
	lc := receiveCycleController(k, phy.ReceiverFunc(phy.ReleaseBurst))
	cycle := func() { runReceiveCycle(k, lc, phy.GetBurst(32)) }
	for i := 0; i < 1000; i++ {
		cycle() // past the kernel list's cap, so the spill path is the steady state
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1_000_000; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	if grown := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grown > 64<<10 {
		t.Errorf("heap grew %d bytes over 1e6 depot-fed receives, want flat", grown)
	}
	if m1.Mallocs-m0.Mallocs > 100 {
		t.Errorf("%d allocations over 1e6 depot-fed receives, want none", m1.Mallocs-m0.Mallocs)
	}
}
