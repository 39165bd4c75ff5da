package myrinet

import (
	"fmt"

	"netfi/internal/bitstream"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Interface is a Myrinet host interface (NIC): it connects a host to the
// network, runs the Myrinet Control Program (MCP) responsible for mapping
// (§4.1), parses the incoming character stream back into packets, performs
// the hardware checks (CRC-8, route-byte MSB, destination address), and
// exposes a routing table of MAC → source route.
//
// Classification happens at wire speed, like the LANai hardware: an
// interface keeps answering mapping packets even when its host is wedged —
// the behaviour §4.3.3 observes ("the node still responds correctly to
// mapping packets").
//
// The zero value is not usable; construct with NewInterface.
type Interface struct {
	k   *sim.Kernel
	cfg InterfaceConfig
	lc  *LinkController
	ctr *Counters

	// Receive-side stream parser. assembling is reused from packet to
	// packet: a classified packet's bytes are valid only until the next
	// one starts.
	inPacket   bool
	assembling []byte
	oversized  bool

	// Routing. routes is the installed table (MCP-mapped or SetRoute),
	// made on first use. resolver computes a route on every table miss
	// (large fabrics derive routes from topology instead of storing H^2
	// entries), appending it to routeBuf, which keeps the capacity of the
	// longest route computed so far.
	routes   map[MAC][]byte
	resolver func(buf []byte, dst MAC) ([]byte, bool)
	routeBuf []byte

	// MCP.
	mcp *MCP

	// Host-side delivery callback (src MAC, UDP-level payload).
	onData func(src MAC, payload []byte)
}

// InterfaceConfig parameterizes an interface.
type InterfaceConfig struct {
	// Name labels the interface in traces.
	Name string
	// MAC is the interface's 48-bit physical address.
	MAC MAC
	// ID is the MCP's 64-bit unique address; the highest ID on the
	// network is responsible for mapping.
	ID NodeID
	// MaxPacket bounds reassembly; a stream exceeding it before a GAP is
	// dropped as oversize. Zero selects 4096.
	MaxPacket int
	// TxQueueLimit bounds the NIC transmit queue in packets; sends
	// beyond it are dropped (DropTxQueue). Zero means unbounded.
	TxQueueLimit int
	// Mapping configures the MCP's mapping behaviour.
	Mapping MappingConfig
	// Recovery enables the link-reset protocol on the interface's link.
	Recovery RecoveryConfig
}

// NewInterface returns an unattached interface.
func NewInterface(k *sim.Kernel, cfg InterfaceConfig) *Interface {
	if cfg.MaxPacket == 0 {
		cfg.MaxPacket = 4096
	}
	ifc := &Interface{
		k:   k,
		cfg: cfg,
		ctr: NewCounters(),
	}
	ifc.mcp = newMCP(ifc, cfg.Mapping)
	return ifc
}

// AttachLink wires the interface: out transmits toward the network; the
// returned receiver must be set as the destination of the arriving link.
func (ifc *Interface) AttachLink(out *phy.Link) phy.Receiver {
	if ifc.lc != nil {
		panic(fmt.Sprintf("myrinet: interface %s already attached", ifc.cfg.Name))
	}
	ifc.lc = NewLinkController(ifc.k, LinkControllerConfig{
		Name:     ifc.cfg.Name + ".lc",
		Out:      out,
		Counters: ifc.ctr,
		Recovery: ifc.cfg.Recovery,
	})
	ifc.lc.setConsumer(ifc)
	ifc.mcp.start()
	return ifc.lc
}

// slackReady implements linkConsumer: parse what arrived.
func (ifc *Interface) slackReady() { ifc.drain() }

// txDrained implements linkConsumer. An interface queues whole packets and
// never streams, so its backlog never crosses the limit.
func (ifc *Interface) txDrained() {}

// linkReset implements linkConsumer by abandoning the in-flight reassembly:
// the link was reset, so the partial packet's tail is gone.
func (ifc *Interface) linkReset() {
	if ifc.inPacket {
		ifc.ctr.Drop(DropReset)
	}
	ifc.assembling = ifc.assembling[:0]
	ifc.inPacket = false
	ifc.oversized = false
}

// Name returns the interface's label.
func (ifc *Interface) Name() string { return ifc.cfg.Name }

// MAC returns the interface's physical address.
func (ifc *Interface) MAC() MAC { return ifc.cfg.MAC }

// ID returns the MCP's unique address.
func (ifc *Interface) ID() NodeID { return ifc.cfg.ID }

// Counters returns the interface statistics.
func (ifc *Interface) Counters() *Counters { return ifc.ctr }

// Controller exposes the link controller (monitors and tests).
func (ifc *Interface) Controller() *LinkController { return ifc.lc }

// MCP returns the interface's Myrinet Control Program.
func (ifc *Interface) MCP() *MCP { return ifc.mcp }

// SetDataHandler registers the host-stack delivery callback. payload lies
// in the interface's reassembly buffer and is valid only for the duration
// of the call: a handler that keeps the bytes copies them.
func (ifc *Interface) SetDataHandler(fn func(src MAC, payload []byte)) { ifc.onData = fn }

// ---- routing table ----

// SetRoute installs a static route (tests and manual topologies).
func (ifc *Interface) SetRoute(dst MAC, route []byte) {
	if ifc.routes == nil {
		ifc.routes = make(map[MAC][]byte)
	}
	ifc.routes[dst] = append([]byte(nil), route...)
}

// SetRouteResolver installs a fallback consulted on every routing-table
// miss: fn appends the route for dst to buf and returns the extended slice,
// or reports false when dst is unknown. buf is the interface's own route
// buffer, reused from call to call, so fn must not keep it, and an
// interface never shares it with another (shards run hosts on different
// goroutines). Nothing is stored: fabric topologies use this to compute
// each packet's route from the port mapping, so memory does not grow with
// the number of destinations a host talks to.
func (ifc *Interface) SetRouteResolver(fn func(buf []byte, dst MAC) ([]byte, bool)) {
	ifc.resolver = fn
}

// Route returns the source route for dst, if known: the installed table
// first, then the resolver. A table route stays valid until the table is
// replaced. A resolved route lies in the interface's route buffer and is
// valid only until the next Route or Send on this interface.
func (ifc *Interface) Route(dst MAC) ([]byte, bool) {
	if r, ok := ifc.routes[dst]; ok || ifc.resolver == nil {
		return r, ok
	}
	r, ok := ifc.resolver(ifc.routeBuf[:0], dst)
	ifc.routeBuf = r[:0]
	return r, ok
}

// Routes returns a copy of the routing table.
func (ifc *Interface) Routes() map[MAC][]byte {
	out := make(map[MAC][]byte, len(ifc.routes))
	for m, r := range ifc.routes {
		out[m] = append([]byte(nil), r...)
	}
	return out
}

// replaceRoutes installs a full table (mapping distribution).
func (ifc *Interface) replaceRoutes(table map[MAC][]byte) {
	ifc.routes = table
}

// ---- transmit ----

// dataHeaderLen is the data-packet payload prefix: destination MAC (6) and
// source MAC (6), the 48-bit Ethernet-style addresses of §4.3.3.
const dataHeaderLen = 12

// Send transmits payload to dst using the routing table. It returns an
// error — and counts DropNoRoute — when the destination is not in the table
// (the node was removed from the network map). The packet is encoded
// straight into a pooled transmit buffer, so payload may be reused as soon
// as Send returns.
func (ifc *Interface) Send(dst MAC, payload []byte) error {
	route, ok := ifc.Route(dst)
	if !ok {
		ifc.ctr.Drop(DropNoRoute)
		return fmt.Errorf("myrinet: %s has no route to %v", ifc.cfg.Name, dst)
	}
	chars, ok := ifc.txBuffer(len(route) + 4 + dataHeaderLen + len(payload) + 2)
	if !ok {
		return nil
	}
	e := charEncoder{dst: chars}
	e.header(route, 0, TypeData)
	e.write(dst[:])
	e.write(ifc.cfg.MAC[:])
	e.write(payload)
	ifc.lc.enqueue(txPacket{chars: e.finish(), done: ifc})
	return nil
}

// SendPacket transmits an arbitrary packet (mapping traffic, tests). When
// the bounded transmit queue is full — the link is stalled by STOP or a
// blocked path — the packet is dropped like a full hardware send ring.
func (ifc *Interface) SendPacket(p *Packet) {
	chars, ok := ifc.txBuffer(p.wireLen() + 1)
	if !ok {
		return
	}
	ifc.lc.enqueue(txPacket{chars: p.putChars(chars), done: ifc})
}

// txBuffer returns a pooled transmit buffer of n characters, which the link
// controller releases once the packet has left or been terminated. It
// reports false, counting DropTxQueue, when the bounded queue is full.
func (ifc *Interface) txBuffer(n int) ([]phy.Character, bool) {
	if ifc.lc == nil {
		panic(fmt.Sprintf("myrinet: interface %s not attached", ifc.cfg.Name))
	}
	if ifc.cfg.TxQueueLimit > 0 && ifc.lc.QueuedPackets() >= ifc.cfg.TxQueueLimit {
		ifc.ctr.Drop(DropTxQueue)
		return nil, false
	}
	return ifc.lc.pool.Get(n), true
}

// TxDone implements TxCompletion: the interface's per-packet send accounting.
// The interface (not a closure) carries the completion so pending transmit
// queues survive a fork.
func (ifc *Interface) TxDone(terminated bool) {
	if !terminated {
		ifc.ctr.PacketsSent++
	}
}

// ---- receive ----

// drain consumes the slack buffer, reassembling packets.
func (ifc *Interface) drain() {
	for {
		c, ok := ifc.lc.Pop()
		if !ok {
			return
		}
		if c.IsData() {
			ifc.inPacket = true
			if ifc.oversized {
				continue
			}
			if len(ifc.assembling) >= ifc.cfg.MaxPacket {
				ifc.oversized = true
				continue
			}
			ifc.assembling = append(ifc.assembling, c.Byte())
			continue
		}
		if DecodeControl(c.Byte()) == SymbolGap && ifc.inPacket {
			ifc.completePacket()
		}
	}
}

// completePacket classifies one reassembled packet.
func (ifc *Interface) completePacket() {
	raw := ifc.assembling
	oversized := ifc.oversized
	ifc.assembling = raw[:0]
	ifc.inPacket = false
	ifc.oversized = false

	switch {
	case oversized:
		ifc.ctr.Drop(DropOversize)
		return
	case len(raw) < 6: // route + 4-byte type + CRC
		ifc.ctr.Drop(DropTruncated)
		return
	}
	routeByte := raw[0]
	if routeByte&RouteSwitchFlag != 0 {
		// "Consumed and handled as an error": dropped without incident,
		// no error propagation (§4.3.2, source route corruption).
		ifc.ctr.Drop(DropRouteMSB)
		return
	}
	body, crc := raw[:len(raw)-1], raw[len(raw)-1]
	if bitstream.CRC8(body) != crc {
		ifc.ctr.Drop(DropCRC)
		return
	}
	if typeHigh := uint16(raw[1])<<8 | uint16(raw[2]); typeHigh != 0 {
		ifc.ctr.Drop(DropUnknownType)
		return
	}
	payload := raw[5 : len(raw)-1]
	switch uint16(raw[3])<<8 | uint16(raw[4]) {
	case TypeData:
		ifc.handleData(payload)
	case TypeMapping:
		ifc.mcp.handlePacket(payload)
	default:
		// Corrupted designators (e.g. 0x0005 -> 0x000x) land here: the
		// packet is ignored, so a corrupted mapping exchange looks like
		// a missing response to the mapper (§4.3.2).
		ifc.ctr.Drop(DropUnknownType)
	}
}

func (ifc *Interface) handleData(payload []byte) {
	if len(payload) < dataHeaderLen {
		ifc.ctr.Drop(DropTruncated)
		return
	}
	var dst, src MAC
	copy(dst[:], payload[0:6])
	copy(src[:], payload[6:12])
	if dst != ifc.cfg.MAC {
		// Misaddressed packets are dropped silently; with its inbound
		// addresses corrupted a node "drops all packets as being
		// misaddressed" (§4.3.3).
		ifc.ctr.Drop(DropMisaddressed)
		return
	}
	ifc.ctr.PacketsReceived++
	if ifc.onData != nil {
		ifc.onData(src, payload[dataHeaderLen:])
	}
}
