package ladder

import (
	"time"

	"netfi/bench/internal/gen"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

var (
	macA = myrinet.MAC{0x02, 0, 0, 0, 0, 1}
	macB = myrinet.MAC{0x02, 0, 0, 0, 0, 2}
)

// dataPacket is a data packet routed out of switch port 1 carrying an
// n-byte payload behind the 12-byte address header.
func dataPacket(n int) *myrinet.Packet {
	body := make([]byte, 0, 12+n)
	body = append(body, macB[:]...)
	body = append(body, macA[:]...)
	for i := 0; i < n; i++ {
		body = append(body, 0x55)
	}
	return &myrinet.Packet{Route: myrinet.RouteTo(1), Type: myrinet.TypeData, Payload: body}
}

func myrinetRungs(budget time.Duration, _ *gen.Inputs, out map[string]float64) {
	// Link controller receive side: 32-symbol data bursts into the slack
	// buffer, drained at once so the watermarks never trip.
	k := sim.NewKernel(1)
	lc := myrinet.NewLinkController(k, myrinet.LinkControllerConfig{
		Name:     "ladder.lc",
		Out:      phy.NewLink(k, linkTiming, releasingSink{}),
		Counters: myrinet.NewCounters(),
	})
	const chunk = 32
	out["myrinet.linkctl_ns_per_symbol"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			b := phy.GetBurst(chunk)
			for j := range b {
				b[j] = phy.DataChar(0x55)
			}
			lc.Receive(b)
			lc.Discard(lc.Buffered())
			k.Run()
		}
	}) / chunk

	out["myrinet.switch_ns_per_packet_64B"] = switchPacket(budget, 64)
	big := dataPacket(1024)
	out["myrinet.switch_ns_per_symbol_1024B"] = switchPacket(budget, 1024) / float64(len(big.EncodeChars()))

	s := myrinet.NewDefaultSlackBuffer(nil, nil)
	c := phy.DataChar(0x55)
	out["myrinet.slack_ns_per_symbol"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			s.Push(c)
			s.Pop()
		}
	})

	// Two interfaces back to back: Send on one, data upcall on the other.
	hk := sim.NewKernel(1)
	a := myrinet.NewInterface(hk, myrinet.InterfaceConfig{Name: "a", MAC: macA, ID: 1})
	b := myrinet.NewInterface(hk, myrinet.InterfaceConfig{Name: "b", MAC: macB, ID: 2})
	myrinet.Connect(hk, myrinet.DefaultLinkConfig("ab"), a, b)
	a.SetRoute(macB, myrinet.RouteTo())
	received := 0
	b.SetDataHandler(func(myrinet.MAC, []byte) { received++ })
	payload := make([]byte, 64)
	sent := 0
	out["myrinet.hostif_ns_per_packet"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			if err := a.Send(macB, payload); err != nil {
				panic(err) // the route was installed above
			}
			hk.Run()
		}
		sent += n
	})
	if received != sent {
		panic("ladder: back-to-back interfaces lost packets")
	}

	small := dataPacket(64)
	out["myrinet.encode_ns_per_packet"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			encodeSink = small.EncodeChars()
		}
	})
}

var encodeSink []phy.Character

// switchPacket times one packet with an n-byte payload through a switch:
// characters arrive at port 0's controller in link-sized chunks and leave
// on port 1's link toward a sink.
func switchPacket(budget time.Duration, n int) float64 {
	k := sim.NewKernel(1)
	sw := myrinet.NewSwitch(k, "ladder.sw", myrinet.DefaultPortCount)
	in := sw.AttachLink(0, phy.NewLink(k, linkTiming, releasingSink{}))
	sw.AttachLink(1, phy.NewLink(k, linkTiming, releasingSink{}))
	chars := dataPacket(n).EncodeChars()
	const chunk = 128 // below the slack high watermark, so no STOP is raised
	forwarded := func() uint64 { return sw.PortCounters(0).PacketsForwarded }
	start := forwarded()
	packets := uint64(0)
	ns := perOp(budget, func(m int) {
		for i := 0; i < m; i++ {
			for off := 0; off < len(chars); off += chunk {
				end := off + chunk
				if end > len(chars) {
					end = len(chars)
				}
				b := phy.GetBurst(end - off)
				copy(b, chars[off:end])
				in.Receive(b)
				// Advance by the chunk's wire time: the next chunk of a
				// real link arrives no sooner, and the packet's timers
				// must not run out between chunks.
				k.RunFor(sim.Duration(end-off) * linkTiming.CharPeriod)
			}
			k.Run()
		}
		packets += uint64(m)
	})
	if got := forwarded() - start; got != packets {
		panic("ladder: switch forwarded a different number of packets than were offered")
	}
	return ns
}
