package phy

import (
	"testing"

	"netfi/internal/sim"
)

// releasingSink consumes deliveries and returns the buffers to the shared
// depot, as a receiver that knows no kernel does.
type releasingSink struct{ chars uint64 }

func (s *releasingSink) Receive(chars []Character) {
	s.chars += uint64(len(chars))
	ReleaseBurst(chars)
}

// poolSink consumes deliveries and returns the buffers to its kernel's
// pool, as link controllers and the injector's ports do.
type poolSink struct {
	pool  *Pool
	chars uint64
}

func (s *poolSink) Receive(chars []Character) {
	s.chars += uint64(len(chars))
	s.pool.Release(chars)
}

// depotOps reports how many gets and puts the shared depot has served.
func depotOps() uint64 {
	var n uint64
	for i := range depot {
		cl := &depot[i]
		cl.mu.Lock()
		n += cl.ops
		cl.mu.Unlock()
	}
	return n
}

var allocLink = LinkConfig{Name: "alloc", CharPeriod: 12_500 * sim.Picosecond, PropDelay: 5 * sim.Nanosecond}

// linkCycle returns one send/deliver/release round over link: a data burst,
// a queued control symbol and a priority one, run to completion.
func linkCycle(k *sim.Kernel, link *Link) func() {
	burst := make([]Character, 64)
	for i := range burst {
		burst[i] = DataChar(byte(i))
	}
	return func() {
		link.Send(burst)
		link.SendOne(ControlChar(0x0C))
		link.SendPriorityOne(ControlChar(0x09))
		k.Run()
	}
}

// Link delivery is the single hottest edge in a campaign: every character of
// every packet crosses at least two links. After the pools warm up, a
// send/deliver cycle must not allocate at all — whether the receiver hands
// the buffer back to the kernel's pool (and then the cycle must not reach
// the shared depot either) or, knowing no kernel, to the depot.
func TestLinkDeliveryZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sink  func(*sim.Kernel) Receiver
		local bool
	}{
		{"kernel-release", func(k *sim.Kernel) Receiver { return &poolSink{pool: PoolOf(k)} }, true},
		{"depot-release", func(*sim.Kernel) Receiver { return &releasingSink{} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			link := NewLink(k, allocLink, tc.sink(k))
			cycle := linkCycle(k, link)
			for i := 0; i < 100; i++ {
				cycle() // warm the burst, delivery, and event pools
			}
			before := depotOps()
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Errorf("link delivery cycle allocates %.2f objects/op, want 0", avg)
			}
			if got := depotOps() - before; tc.local && got != 0 {
				t.Errorf("kernel-local cycle reached the shared depot %d times, want 0", got)
			}
			if chars, _ := link.Stats(); chars == 0 {
				t.Fatal("link carried nothing")
			}
		})
	}
}

// The other mixed direction: buffers taken from the depot and released into
// a kernel's pool. The local list must never grow past its cap — a full
// list hands half of itself back — so the depot keeps feeding the producer:
// no allocation per round trip, no growth.
func TestDepotToKernelBounded(t *testing.T) {
	p := PoolOf(sim.NewKernel(1))
	class := burstClassFor(32)
	most := 0
	trip := func() {
		p.Release(GetBurst(32))
		most = max(most, len(p.bursts[class]))
	}
	for i := 0; i < 4*localBurstCap; i++ {
		trip()
	}
	if avg := testing.AllocsPerRun(1000, trip); avg != 0 {
		t.Errorf("depot-to-kernel round trip allocates %.2f objects/op, want 0", avg)
	}
	if most > localBurstCap {
		t.Errorf("kernel held %d local buffers after a trip, want at most the cap %d", most, localBurstCap)
	}
}

func TestBurstPoolRoundTrip(t *testing.T) {
	b := GetBurst(100)
	if len(b) != 100 {
		t.Fatalf("len = %d, want 100", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want the 128 size class", cap(b))
	}
	ReleaseBurst(b)
	b2 := GetBurst(65)
	if cap(b2) != 128 {
		t.Fatalf("cap after recycle = %d, want 128", cap(b2))
	}
	// Slices whose capacity is not a pooled power of two are ignored.
	ReleaseBurst(make([]Character, 5))
	ReleaseBurst(make([]Character, 0, 100))
	ReleaseBurst(nil)
	p := PoolOf(sim.NewKernel(1))
	p.Release(make([]Character, 0, 100))
	for c, free := range p.bursts {
		if len(free) != 0 {
			t.Errorf("class %d pooled a slice of capacity 100", c)
		}
	}
	if got := GetBurst(0); got != nil {
		t.Errorf("GetBurst(0) = %v, want nil", got)
	}
	// Oversize requests fall through to plain allocation.
	big := GetBurst(1 << 17)
	if len(big) != 1<<17 {
		t.Fatalf("oversize len = %d", len(big))
	}
	ReleaseBurst(big) // ignored: above the largest class
}
