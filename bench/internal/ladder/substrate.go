package ladder

import (
	"sync"
	"time"

	"netfi/bench/internal/gen"
	"netfi/internal/bitstream"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

const burstLen = 1024

// dataBurst is the fixed 1024-symbol burst: data characters of value 0,
// which no ladder rule set starts on.
func dataBurst() []phy.Character { return phy.DataChars(make([]byte, burstLen)) }

// releasingSink consumes deliveries and returns the buffers to the pool, as
// a pool-aware receiver does.
type releasingSink struct{}

func (releasingSink) Receive(chars []phy.Character) { phy.ReleaseBurst(chars) }

var linkTiming = phy.LinkConfig{Name: "ladder", CharPeriod: 12_500 * sim.Picosecond, PropDelay: 5 * sim.Nanosecond}

func nop() {}

func simRungs(budget time.Duration, _ *gen.Inputs, out map[string]float64) {
	// The floor: schedule one event a tick ahead and fire it.
	// The schedule/fire/cancel mix of BenchmarkKernel: mostly wheel level
	// 0, some levels 1 and 2, a tail past the wheel horizon (heap), one in
	// sixteen canceled. Every scheduled event has fired or been canceled
	// when a batch ends.
	delays := [8]sim.Duration{
		50 * sim.Nanosecond, 800 * sim.Nanosecond, 2 * sim.Microsecond,
		30 * sim.Microsecond, 700 * sim.Microsecond,
		9 * sim.Millisecond, 16 * sim.Millisecond, 40 * sim.Millisecond,
	}
	nk := sim.NewKernel(1)
	out["sim.near_event_ns"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			nk.After(1, nop)
			nk.Step()
		}
	})

	k := sim.NewKernel(1)
	var pending []sim.EventID
	mix := func(n int) {
		for i := 0; i < n; i++ {
			id := k.After(delays[i&7], nop)
			if i&7 == 3 {
				pending = append(pending, id)
			}
			if i&15 == 15 {
				k.Cancel(pending[len(pending)-1])
				pending = pending[:len(pending)-1]
				for j := 0; j < 16 && k.Step(); j++ {
				}
			}
		}
		k.Run()
		pending = pending[:0]
	}
	out["sim.ns_per_event"] = perOp(budget, mix)
	out["sim.allocs_per_event"] = allocsPerOp(1<<16, mix)

	// Watchdog pattern: arm, re-arm while armed (cancel + schedule), fire.
	tk := sim.NewKernel(1)
	t := sim.NewTimer(tk, sim.Microsecond, nop)
	out["sim.timer_reset_ns"] = perOp(budget, func(n int) {
		for i := 0; i < n; i += 2 {
			t.Reset()
			t.Reset()
			tk.Run()
		}
	})

	// Two kernels, each with one trivial event per lookahead period: every
	// window is a barrier round trip around almost no work.
	const lookahead = 100 * sim.Nanosecond
	kernels := []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}
	var tick func(any)
	tick = func(a any) { a.(*sim.Kernel).AfterArg(lookahead, tick, a) }
	for _, sk := range kernels {
		sk.AfterArg(lookahead, tick, sk)
	}
	g := sim.NewShardGroup(kernels, lookahead)
	defer g.Close()
	var windows uint64
	var spent time.Duration
	perOp(budget, func(n int) {
		w0, t0 := g.Windows(), time.Now()
		g.Run(g.Now() + sim.Time(n)*sim.Time(lookahead))
		spent += time.Since(t0)
		windows += g.Windows() - w0
	})
	out["sim.shard_window_ns"] = float64(spent.Nanoseconds()) / float64(windows)
}

func phyRungs(budget time.Duration, _ *gen.Inputs, out map[string]float64) {
	pool := func(n int) {
		for i := 0; i < n; i++ {
			phy.ReleaseBurst(phy.GetBurst(burstLen))
		}
	}
	out["phy.pool_ns_per_burst"] = perOp(budget, pool)
	// Each of two goroutines does n round trips; the figure is the wall
	// time per round trip as one goroutine sees it, so it equals the
	// single-goroutine figure when the pool does not serialize them.
	out["phy.pool_ns_per_burst_2t"] = perOp(budget, func(n int) {
		var wg sync.WaitGroup
		wg.Add(2)
		for g := 0; g < 2; g++ {
			go func() {
				defer wg.Done()
				pool(n)
			}()
		}
		wg.Wait()
	})

	k := sim.NewKernel(1)
	link := phy.NewLink(k, linkTiming, releasingSink{})
	burst := dataBurst()
	out["phy.link_ns_per_symbol"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			link.Send(burst)
			k.Run()
		}
	}) / burstLen
	stop := phy.ControlChar(0x0F)
	out["phy.link_ns_per_burst1"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			link.SendPriorityOne(stop)
			k.Run()
		}
	})

	// Buffer into two outboxes, exchange at a "barrier", execute: the
	// cross-shard path of one fabric window.
	xk := sim.NewKernel(1)
	set := phy.NewExchangeSet(2)
	ends := [2]*phy.ChannelEnd{phy.NewChannelEnd(set.Box(0), xk, 2), phy.NewChannelEnd(set.Box(1), xk, 3)}
	const perCycle = 16
	out["phy.outbox_ns_per_delivery"] = perOp(budget, func(n int) {
		for i := 0; i < n; i += perCycle {
			base := xk.Now()
			for j := 0; j < perCycle/2; j++ {
				for _, e := range ends {
					e.Deliver(base+sim.Time(j+1), releasingSink{}, phy.GetBurst(16))
				}
			}
			set.Exchange()
			xk.Run()
		}
	})
}

func bitstreamRungs(budget time.Duration, _ *gen.Inputs, out map[string]float64) {
	data := make([]byte, burstLen)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var sink8 byte
	out["bitstream.crc8_ns_per_byte"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink8 ^= bitstream.CRC8(data)
		}
	}) / burstLen
	var sink32 uint32
	out["bitstream.crc32_ns_per_byte"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink32 ^= bitstream.CRC32(data)
		}
	}) / burstLen
	crcSink = uint32(sink8) ^ sink32
}

// crcSink keeps the CRC results observable so the calls are not elided.
var crcSink uint32
