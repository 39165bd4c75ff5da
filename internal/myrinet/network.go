package myrinet

import (
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Attachable is anything that terminates a full-duplex Myrinet cable: host
// interfaces and switch ports (via portAttacher).
type Attachable interface {
	// AttachLink wires the device to transmit on out and returns the
	// receiver for the arriving direction.
	AttachLink(out *phy.Link) phy.Receiver
}

// portAttacher adapts one switch port to the Attachable interface.
type portAttacher struct {
	sw   *Switch
	port int
}

// AttachLink implements Attachable.
func (pa portAttacher) AttachLink(out *phy.Link) phy.Receiver {
	return pa.sw.AttachLink(pa.port, out)
}

// Port returns an Attachable for port p of sw.
func Port(sw *Switch, p int) Attachable { return portAttacher{sw: sw, port: p} }

// DefaultLinkConfig returns the paper's link timing: 80 MB/s per direction
// (12.5 ns character period) and a one-meter cable (~5 ns propagation).
func DefaultLinkConfig(name string) phy.LinkConfig {
	return phy.LinkConfig{
		Name:       name,
		CharPeriod: CharPeriod,
		PropDelay:  5 * sim.Nanosecond,
	}
}

// nullReceiver discards characters; used as a placeholder while wiring.
type nullReceiver struct{}

func (nullReceiver) Receive(chars []phy.Character) { phy.ReleaseBurst(chars) }

// Connect builds a full-duplex cable between a and b and wires both ends.
// It returns the cable so the fault injector can later be spliced into it.
func Connect(k *sim.Kernel, cfg phy.LinkConfig, a, b Attachable) *phy.Cable {
	return ConnectCross(k, k, cfg, a, b)
}

// ConnectCross builds a full-duplex cable between endpoints that may live on
// different kernels: each direction's link is constructed on the *sender's*
// kernel (a link reads its own clock when serializing), while delivery to
// the far side is the fabric layer's problem — it installs a DeliverySink on
// both links so bursts cross shards through barrier exchange instead of
// direct scheduling.
func ConnectCross(ka, kb *sim.Kernel, cfg phy.LinkConfig, a, b Attachable) *phy.Cable {
	aToB := cfg
	aToB.Name = cfg.Name + ":a2b"
	bToA := cfg
	bToA.Name = cfg.Name + ":b2a"
	linkAB := phy.NewLink(ka, aToB, nullReceiver{})
	linkBA := phy.NewLink(kb, bToA, nullReceiver{})
	recvA := a.AttachLink(linkAB) // a transmits on linkAB
	recvB := b.AttachLink(linkBA) // b transmits on linkBA
	linkAB.SetDst(recvB)
	linkBA.SetDst(recvA)
	return &phy.Cable{LeftToRight: linkAB, RightToLeft: linkBA}
}
