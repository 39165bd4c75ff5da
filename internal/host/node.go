// Package host models the workstations of the paper's test bed (Fig. 10):
// a UDP/IP-era stack on slow CPUs (200 MHz Pentium Pro, 170 MHz
// UltraSPARC). Each Node couples a Myrinet interface with per-packet
// send/receive processing overheads, a bounded socket buffer that drops on
// overflow, a real 16-bit one's-complement UDP checksum (§4.3.4 depends on
// its arithmetic), and an interrupt-granularity timing model: receive
// completions are visible to applications only at timer-tick boundaries
// whose phase differs per run — the source of Table 2's measurement
// uncertainty ("the actual latency interval is getting lost in the
// granularity caused by the computer's interrupt handler").
package host

import (
	"encoding/binary"
	"errors"
	"fmt"

	"netfi/internal/bitstream"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// NodeConfig parameterizes a workstation.
type NodeConfig struct {
	// Name labels the node.
	Name string
	// MAC and ID identify the node's Myrinet interface.
	MAC myrinet.MAC
	ID  myrinet.NodeID
	// SendOverhead is the per-packet CPU cost from the application's
	// send call to the NIC enqueue. Zero selects 100 us (mid-90s UDP
	// stack on a Pentium Pro).
	SendOverhead sim.Duration
	// OverheadJitter adds uniform per-packet noise to the send and
	// receive overheads (cache effects, other interrupts); it lets the
	// quantized per-run averages drift the way real hosts do. Zero means
	// deterministic overheads.
	OverheadJitter sim.Duration
	// TickPhase offsets the interrupt-tick grid; runs with different
	// phases measure differently, which is exactly Table 2's uncertainty.
	TickPhase sim.Duration
	// TxQueueLimit bounds the NIC transmit queue in packets (zero means
	// unbounded); see myrinet.InterfaceConfig.
	TxQueueLimit int
	// Mapping configures the interface's MCP.
	Mapping myrinet.MappingConfig
	// Recovery enables the link-reset protocol on the node's interface.
	Recovery myrinet.RecoveryConfig
}

func (c *NodeConfig) fillDefaults() {
	if c.SendOverhead == 0 {
		c.SendOverhead = 100 * sim.Microsecond
	}
}

const (
	// recvOverhead is the per-packet CPU cost from NIC delivery to the
	// application handler.
	recvOverhead = 130 * sim.Microsecond
	// interruptTick quantizes receive completion times: the application
	// observes arrival only at the next tick boundary.
	interruptTick = sim.Microsecond
	// socketBuffer bounds queued-but-undelivered packets per node; the
	// classic UDP drop-on-overflow.
	socketBuffer = 64
)

// Stats counts host-stack events.
type Stats struct {
	UDPSent        uint64
	UDPReceived    uint64
	ChecksumDrops  uint64
	NoSocketDrops  uint64
	OverflowDrops  uint64
	MalformedDrops uint64
	NoRouteErrors  uint64
}

// Node is one workstation: a Myrinet interface plus the host stack.
//
// The zero value is not usable; construct with NewNode.
type Node struct {
	k   *sim.Kernel
	cfg NodeConfig
	ifc *myrinet.Interface
	// recv is onDatagram bound to this node, the interface's data handler:
	// made once per node, so a fork into a used world rebinds it for free.
	recv func(src myrinet.MAC, payload []byte)

	sockets map[uint16]*Socket
	stats   Stats

	// Receive processor: one packet at a time, recvOverhead each. While
	// recvBusy, inRecv is the packet whose completion event is pending
	// (kept on the node, not in a closure, so a fork can copy it). recvq
	// is a ring of recvLen packets from recvHead that grows on demand;
	// each slot, and inRecv, owns a data buffer reused from packet to
	// packet.
	recvq    []queuedPacket
	recvHead int
	recvLen  int
	recvBusy bool
	inRecv   queuedPacket

	// Send serialization: the CPU injects packets one SendOverhead apart.
	sendReadyAt sim.Time
	// freeSends recycles fired send records with their datagram buffers.
	freeSends []*pendingSend

	// dead marks a killed workstation (chaos node-death fault): the CPU
	// neither sends nor services interrupts, while the NIC hardware below
	// keeps echoing link-level symbols until its cable is also cut.
	dead bool
}

type queuedPacket struct {
	src     myrinet.MAC
	srcPort uint16
	dstPort uint16
	data    []byte
}

// NewNode builds a workstation around a new Myrinet interface.
func NewNode(k *sim.Kernel, cfg NodeConfig) *Node {
	cfg.fillDefaults()
	n := &Node{
		k:       k,
		cfg:     cfg,
		sockets: make(map[uint16]*Socket),
	}
	n.ifc = myrinet.NewInterface(k, myrinet.InterfaceConfig{
		Name:         cfg.Name,
		MAC:          cfg.MAC,
		ID:           cfg.ID,
		Mapping:      cfg.Mapping,
		TxQueueLimit: cfg.TxQueueLimit,
		Recovery:     cfg.Recovery,
	})
	n.recv = n.onDatagram
	n.ifc.SetDataHandler(n.recv)
	return n
}

// Name returns the node's label.
func (n *Node) Name() string { return n.cfg.Name }

// Interface exposes the node's Myrinet interface.
func (n *Node) Interface() *myrinet.Interface { return n.ifc }

// MAC returns the node's address.
func (n *Node) MAC() myrinet.MAC { return n.cfg.MAC }

// Stats returns a copy of the host-stack counters.
func (n *Node) Stats() Stats { return n.stats }

// Kill halts the workstation: pending and future sends are discarded and
// arriving datagrams are dropped without processing. The interface hardware
// is untouched — a dead host's NIC still participates in link-level flow
// control, which is exactly why chaos campaigns pair Kill with severing the
// node's cable when they want the peer's detectors to see full silence.
func (n *Node) Kill() { n.dead = true }

// Dead reports whether the workstation has been killed.
func (n *Node) Dead() bool { return n.dead }

// Socket is a bound UDP port.
type Socket struct {
	node    *Node
	port    uint16
	handler func(src myrinet.MAC, srcPort uint16, data []byte)

	received uint64
}

// Received reports datagrams delivered to this socket, counted with or
// without a handler.
func (s *Socket) Received() uint64 { return s.received }

// Bind opens a UDP socket on port; handler runs after the receive path's
// processing overhead. data lies in a buffer the node reuses for a later
// datagram, so it is valid only for the duration of the call: a handler
// that keeps the bytes copies them. Binding an in-use port is an error.
func (n *Node) Bind(port uint16, handler func(src myrinet.MAC, srcPort uint16, data []byte)) (*Socket, error) {
	if _, ok := n.sockets[port]; ok {
		return nil, fmt.Errorf("host: %s port %d already bound", n.cfg.Name, port)
	}
	s := &Socket{node: n, port: port, handler: handler}
	n.sockets[port] = s
	return s, nil
}

// Close releases the socket's port.
func (s *Socket) Close() { delete(s.node.sockets, s.port) }

// SetHandler rebinds the socket's delivery handler, under Bind's contract.
// Applications that survive a fork use this to point their cloned sockets
// at new-world closures (a fork carries sockets with nil handlers; see
// Node.Clone).
func (s *Socket) SetHandler(handler func(src myrinet.MAC, srcPort uint16, data []byte)) {
	s.handler = handler
}

// udpHeaderLen is srcPort(2) + dstPort(2) + length(2) + checksum(2).
const udpHeaderLen = 8

// appendUDP appends the datagram srcPort → dstPort carrying data to dst:
// the header with a one's-complement checksum over header (checksum field
// zero) plus data.
func appendUDP(dst []byte, srcPort, dstPort uint16, data []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, data...)
	dgram := dst[start:]
	binary.BigEndian.PutUint16(dgram[0:], srcPort)
	binary.BigEndian.PutUint16(dgram[2:], dstPort)
	binary.BigEndian.PutUint16(dgram[4:], uint16(len(dgram)))
	binary.BigEndian.PutUint16(dgram[6:], bitstream.Checksum16(dgram))
	return dst
}

// DecodeUDP parses and checksums a datagram. A refused datagram is
// answered with one of three fixed errors, so a corrupted stream costs a
// receiver nothing to refuse.
func DecodeUDP(dgram []byte) (srcPort, dstPort uint16, data []byte, err error) {
	if len(dgram) < udpHeaderLen {
		return 0, 0, nil, errShort
	}
	if binary.BigEndian.Uint16(dgram[4:]) != uint16(len(dgram)) {
		return 0, 0, nil, errLength
	}
	if !bitstream.VerifyChecksum16(dgram) {
		return 0, 0, nil, errChecksum
	}
	return binary.BigEndian.Uint16(dgram[0:]), binary.BigEndian.Uint16(dgram[2:]), dgram[udpHeaderLen:], nil
}

var (
	errShort    = errors.New("host: datagram shorter than its header")
	errLength   = errors.New("host: datagram length field differs from its length")
	errChecksum = errors.New("host: UDP checksum mismatch")
)

// jitter returns a uniform random duration in [0, OverheadJitter).
func (n *Node) jitter() sim.Duration {
	if n.cfg.OverheadJitter <= 0 {
		return 0
	}
	return sim.Duration(n.k.Rand().Int63n(int64(n.cfg.OverheadJitter)))
}

// SendUDP queues a datagram to dst. The CPU serializes sends one
// SendOverhead apart; the NIC transmits when the packet reaches it. data is
// copied, so the caller may reuse it as soon as SendUDP returns.
func (n *Node) SendUDP(dst myrinet.MAC, srcPort, dstPort uint16, data []byte) {
	if n.dead {
		return
	}
	s := n.newPendingSend()
	s.dst = dst
	s.dgram = appendUDP(s.dgram[:0], srcPort, dstPort, data)
	at := n.k.Now() + n.cfg.SendOverhead + n.jitter()
	if n.sendReadyAt > n.k.Now() {
		at = n.sendReadyAt + n.cfg.SendOverhead + n.jitter()
	}
	n.sendReadyAt = at
	n.k.AtArg(at, firePendingSend, s)
}

// pendingSend is one serialized CPU send awaiting its injection instant.
// Several can be pending per node (the CPU pipelines them SendOverhead
// apart), so each is its own record; a fired record returns to its node's
// free list with its datagram buffer.
type pendingSend struct {
	n     *Node
	dst   myrinet.MAC
	dgram []byte
}

func (n *Node) newPendingSend() *pendingSend {
	if last := len(n.freeSends) - 1; last >= 0 {
		s := n.freeSends[last]
		n.freeSends[last] = nil
		n.freeSends = n.freeSends[:last]
		return s
	}
	return &pendingSend{n: n}
}

func firePendingSend(a any) {
	s := a.(*pendingSend)
	n := s.n
	if !n.dead {
		if err := n.ifc.Send(s.dst, s.dgram); err != nil {
			n.stats.NoRouteErrors++
		} else {
			n.stats.UDPSent++
		}
	}
	// Send encoded the datagram into the NIC's own buffer, so the record
	// is free again.
	n.freeSends = append(n.freeSends, s)
}

// CloneSimArg implements sim.ArgClonable: a fork remaps the node and copies
// the datagram into a record from the fork node's free list, so neither
// world aliases the other's buffer.
func (s *pendingSend) CloneSimArg(m *sim.Mapper) any {
	n2, ok := m.Lookup(s.n)
	if !ok {
		m.Fail(fmt.Errorf("host: fork: pending send references an uncloned node"))
		return nil
	}
	s2 := n2.(*Node).newPendingSend()
	s2.dst, s2.dgram = s.dst, append(s2.dgram[:0], s.dgram...)
	return s2
}

// ReclaimSimArg implements sim.ArgReclaimer: a pending send of a world being
// forked into returns to its node's free list.
func (s *pendingSend) ReclaimSimArg() { s.n.freeSends = append(s.n.freeSends, s) }

// onDatagram is the NIC delivery path: checksum and demultiplex at
// interrupt level, then queue for process-level delivery.
func (n *Node) onDatagram(src myrinet.MAC, payload []byte) {
	if n.dead {
		return
	}
	srcPort, dstPort, data, err := DecodeUDP(payload)
	if err != nil {
		if err == errChecksum {
			// "When the corruption did not satisfy the checksum, the
			// packets were dropped" (§4.3.4).
			n.stats.ChecksumDrops++
			n.ifc.Counters().Drop(myrinet.DropChecksum)
		} else {
			n.stats.MalformedDrops++
		}
		return
	}
	if _, ok := n.sockets[dstPort]; !ok {
		n.stats.NoSocketDrops++
		return
	}
	if n.recvLen >= socketBuffer {
		n.stats.OverflowDrops++
		return
	}
	if n.recvLen == len(n.recvq) {
		n.growRecvq()
	}
	// payload lies in the interface's reassembly buffer: copy it into the
	// slot's own buffer before the next packet overwrites it.
	slot := &n.recvq[(n.recvHead+n.recvLen)%len(n.recvq)]
	slot.src, slot.srcPort, slot.dstPort = src, srcPort, dstPort
	slot.data = append(slot.data[:0], data...)
	n.recvLen++
	n.pumpRecv()
}

// growRecvq doubles the receive ring, moving the queued packets (and their
// buffers) to its front.
func (n *Node) growRecvq() {
	if n.recvLen == 0 && cap(n.recvq) > 0 {
		// An empty ring a recycled fork kept: nothing to move.
		n.recvq, n.recvHead = n.recvq[:cap(n.recvq)], 0
		return
	}
	ring := make([]queuedPacket, max(4, 2*len(n.recvq)))
	for i := 0; i < n.recvLen; i++ {
		ring[i] = n.recvq[(n.recvHead+i)%len(n.recvq)]
	}
	n.recvq, n.recvHead = ring, 0
}

// pumpRecv drains the receive queue one packet per recvOverhead, delivering
// at interrupt-tick boundaries.
func (n *Node) pumpRecv() {
	if n.recvBusy || n.recvLen == 0 {
		return
	}
	n.recvBusy = true
	// The head slot becomes inRecv; the slot takes inRecv's spent buffer.
	slot := &n.recvq[n.recvHead]
	n.inRecv, *slot = *slot, queuedPacket{data: n.inRecv.data[:0]}
	n.recvHead = (n.recvHead + 1) % len(n.recvq)
	n.recvLen--
	done := n.quantize(n.k.Now() + recvOverhead + n.jitter())
	n.k.AtArg(done, nodeRecvDone, n)
}

func nodeRecvDone(a any) {
	n := a.(*Node)
	p := n.inRecv
	n.inRecv = queuedPacket{data: p.data[:0]}
	n.recvBusy = false
	if s, ok := n.sockets[p.dstPort]; ok {
		n.stats.UDPReceived++
		s.received++
		if s.handler != nil {
			s.handler(p.src, p.srcPort, p.data)
		}
	} else {
		n.stats.NoSocketDrops++
	}
	n.pumpRecv()
}

// quantize rounds t up to the node's next interrupt-tick boundary.
func (n *Node) quantize(t sim.Time) sim.Time {
	rel := t - n.cfg.TickPhase
	q := (rel + interruptTick - 1) / interruptTick * interruptTick
	return q + n.cfg.TickPhase
}
