package myrinet

import (
	"testing"

	"netfi/internal/bitstream"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// directPair wires two interfaces back to back (no switch): A's route to B
// is just the final byte.
func directPair(t *testing.T, k *sim.Kernel) (*testHost, *testHost) {
	t.Helper()
	a := newTestHost(k, "A", 1, 1, MappingConfig{})
	b := newTestHost(k, "B", 2, 2, MappingConfig{})
	Connect(k, DefaultLinkConfig("ab"), a.ifc, b.ifc)
	a.ifc.SetRoute(b.ifc.MAC(), []byte{RouteFinal})
	b.ifc.SetRoute(a.ifc.MAC(), []byte{RouteFinal})
	return a, b
}

func TestInterfaceDirectDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := directPair(t, k)
	if err := a.ifc.Send(b.ifc.MAC(), []byte("point to point")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(b.received) != 1 || string(b.received[0]) != "point to point" {
		t.Fatalf("B received %q", b.received)
	}
}

func TestInterfaceNoRouteError(t *testing.T) {
	k := sim.NewKernel(1)
	a, _ := directPair(t, k)
	if err := a.ifc.Send(MAC{9, 9, 9, 9, 9, 9}, []byte("x")); err == nil {
		t.Error("send without route succeeded")
	}
	if got := a.ifc.Counters().Drops[DropNoRoute]; got != 1 {
		t.Errorf("DropNoRoute = %d, want 1", got)
	}
}

func TestInterfaceTxQueueLimit(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewInterface(k, InterfaceConfig{
		Name: "A", MAC: MAC{2, 0, 0, 0, 0, 1}, ID: 1, TxQueueLimit: 2,
	})
	b := newTestHost(k, "B", 2, 2, MappingConfig{})
	Connect(k, DefaultLinkConfig("ab"), a, b.ifc)
	a.SetRoute(b.ifc.MAC(), []byte{RouteFinal})
	// Enqueue a burst without letting the kernel run: the ring holds the
	// in-flight packet plus two queued; the rest drop.
	for i := 0; i < 10; i++ {
		if err := a.Send(b.ifc.MAC(), make([]byte, 600)); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	drops := a.Counters().Drops[DropTxQueue]
	if drops == 0 {
		t.Fatal("no tx-queue drops despite tiny ring")
	}
	if got := uint64(len(b.received)) + drops; got != 10 {
		t.Errorf("delivered %d + dropped %d != 10", len(b.received), drops)
	}
}

func TestInterfaceOversizeStreamDropped(t *testing.T) {
	// A stream that never sees its GAP (merged packets after a lost GAP)
	// must be dropped as oversize and the parser must resync afterwards.
	k := sim.NewKernel(1)
	a, b := directPair(t, k)
	_ = a
	lc := b.ifc.Controller()
	// Feed in link-sized chunks (the parser drains between bursts, as on
	// the real wire) until well past the 4096-byte reassembly bound.
	chunk := make([]phy.Character, 500)
	for i := range chunk {
		chunk[i] = phy.DataChar(byte(i))
	}
	for i := 0; i < 12; i++ {
		lc.Receive(chunk)
	}
	lc.Receive([]phy.Character{GapChar()})
	if got := b.ifc.Counters().Drops[DropOversize]; got != 1 {
		t.Fatalf("DropOversize = %d, want 1", got)
	}
	// Resync: a clean packet right after is delivered.
	if err := a.ifc.Send(b.ifc.MAC(), []byte("after the monster")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(b.received) != 1 {
		t.Errorf("no delivery after oversize resync")
	}
}

func TestInterfaceTruncatedPacketDropped(t *testing.T) {
	k := sim.NewKernel(1)
	_, b := directPair(t, k)
	lc := b.ifc.Controller()
	lc.Receive([]phy.Character{phy.DataChar(0x00), phy.DataChar(0x01), GapChar()})
	if got := b.ifc.Counters().Drops[DropTruncated]; got != 1 {
		t.Errorf("DropTruncated = %d, want 1", got)
	}
}

func TestInterfaceDataPacketCounted(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := directPair(t, k)
	if err := a.ifc.Send(b.ifc.MAC(), []byte("counted")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if got := b.ifc.Counters().PacketsReceived; got != 1 {
		t.Fatalf("PacketsReceived = %d, want 1", got)
	}
	if len(b.received) != 1 || string(b.received[0]) != "counted" || b.srcs[0] != a.ifc.MAC() {
		t.Errorf("data handler got %q from %v", b.received, b.srcs)
	}
}

func TestInterfaceCRCDropOnWireCorruption(t *testing.T) {
	// Corrupt one byte in flight (via a tap on the link): the interface
	// must count a CRC drop and deliver nothing.
	k := sim.NewKernel(1)
	a, b := directPair(t, k)
	link := a.ifc.Controller().Out()
	orig := link.Dst()
	first := true
	link.SetDst(phy.ReceiverFunc(func(chars []phy.Character) {
		if first {
			for i, c := range chars {
				if c.IsData() && c.Byte() == 'p' {
					chars[i] = phy.DataChar('q')
					first = false
					break
				}
			}
		}
		orig.Receive(chars)
	}))
	if err := a.ifc.Send(b.ifc.MAC(), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if got := b.ifc.Counters().Drops[DropCRC]; got != 1 {
		t.Errorf("DropCRC = %d, want 1", got)
	}
	if len(b.received) != 0 {
		t.Error("corrupted packet delivered")
	}
}

func TestInterfaceUnknownTypeDropped(t *testing.T) {
	k := sim.NewKernel(1)
	_, b := directPair(t, k)
	p := &Packet{Route: []byte{RouteFinal}, Type: 0x00FF, Payload: []byte("?")}
	b.ifc.Controller().Receive(p.EncodeChars())
	if got := b.ifc.Counters().Drops[DropUnknownType]; got != 1 {
		t.Errorf("DropUnknownType = %d, want 1", got)
	}
}

func TestInterfaceTypeHighBytesRejected(t *testing.T) {
	// The 4-byte type field's high half must be zero; a corrupted high
	// byte makes the packet unrecognizable even if the low half says
	// "data".
	k := sim.NewKernel(1)
	_, b := directPair(t, k)
	p := &Packet{Route: []byte{RouteFinal}, TypeHigh: 0x0100, Type: TypeData, Payload: make([]byte, 16)}
	b.ifc.Controller().Receive(p.EncodeChars())
	if got := b.ifc.Counters().Drops[DropUnknownType]; got != 1 {
		t.Errorf("DropUnknownType = %d, want 1", got)
	}
}

func TestInterfaceShortDataPayloadTruncated(t *testing.T) {
	k := sim.NewKernel(1)
	_, b := directPair(t, k)
	p := &Packet{Route: []byte{RouteFinal}, Type: TypeData, Payload: []byte{1, 2, 3}}
	b.ifc.Controller().Receive(p.EncodeChars())
	if got := b.ifc.Counters().Drops[DropTruncated]; got != 1 {
		t.Errorf("DropTruncated = %d, want 1", got)
	}
}

func TestCRC8IncrementalAdjustmentIdentity(t *testing.T) {
	// The switch's incremental CRC trick: for any packet, stripping the
	// first byte and xoring the correction term equals recomputing.
	body := []byte{0x81, 0x00, 0x00, 0x00, 0x04, 0xDE, 0xAD, 0xBE, 0xEF}
	full := bitstream.CRC8(body)
	corr := bitstream.CRC8Update(0, body[0])
	for range body[1:] {
		corr = bitstream.CRC8Update(corr, 0)
	}
	if got := full ^ corr; got != bitstream.CRC8(body[1:]) {
		t.Errorf("incremental adjust = %#02x, recompute = %#02x", got, bitstream.CRC8(body[1:]))
	}
}
