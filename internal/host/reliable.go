package host

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Reliable is a stop-and-wait reliable datagram layer over the node's UDP
// stack: sequence numbers, positive acks, retransmission with exponential
// backoff and RNG jitter, and bounded retries. It is the recovery layer's
// end-to-end component — the network's link resets and watchdogs only drop
// wedged packets; something above UDP has to send them again. One Reliable
// endpoint binds one port; each destination MAC is an independent flow with
// its own sequence space and RTT estimate.
//
// The zero value is not usable; construct with NewReliable.
type Reliable struct {
	node *Node
	k    *sim.Kernel
	cfg  ReliableConfig
	port uint16

	flows  map[myrinet.MAC]*flow  // sender state per destination
	expect map[myrinet.MAC]uint32 // receiver state: next in-order seq per source
	onData func(src myrinet.MAC, data []byte)
	// recv is onDatagram bound to this endpoint, its socket's handler:
	// made once per endpoint, so a fork into a used world rebinds it for
	// free.
	recv func(src myrinet.MAC, srcPort uint16, dgram []byte)

	stats ReliableStats
}

// ReliableConfig parameterizes the transport.
type ReliableConfig struct {
	// InitialRTO seeds the retransmission timeout before any RTT sample.
	// Zero selects 2 ms (a host round trip is ~500 us of CPU overheads
	// plus wire time).
	InitialRTO sim.Duration
	// MaxRTO caps the exponential backoff. Zero selects 100 ms — past the
	// link layer's long timeout and every recovery watchdog, so a
	// retransmission lands on a link that has had time to reset itself.
	MaxRTO sim.Duration
	// MaxRetries bounds retransmissions per datagram; one past the limit
	// the datagram is abandoned and counted as GaveUp. Zero selects 6.
	MaxRetries int
}

func (c *ReliableConfig) fillDefaults() {
	if c.InitialRTO == 0 {
		c.InitialRTO = 2 * sim.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 100 * sim.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 6
	}
}

// ReliableStats aggregates one endpoint's counters across all flows.
type ReliableStats struct {
	// Sent counts datagrams accepted from the application.
	Sent uint64
	// Delivered counts datagrams positively acknowledged.
	Delivered uint64
	// Retransmits counts timeout-driven resends.
	Retransmits uint64
	// GaveUp counts datagrams abandoned after MaxRetries.
	GaveUp uint64
	// DupsDropped counts received duplicates (the datagram arrived, its
	// ack was lost, the retransmit arrived too).
	DupsDropped uint64
	// AcksReceived counts acks consumed, including stale ones.
	AcksReceived uint64
}

// flow is the sender half of one destination's stop-and-wait channel.
type flow struct {
	r   *Reliable
	dst myrinet.MAC

	nextSeq uint32
	// Datagrams waiting behind the in-flight one: a ring of qLen entries
	// from queue[qHead]. Every slot keeps its storage when it empties, so
	// a flow that has queued as deep before copies a message for nothing.
	queue       [][]byte
	qHead, qLen int

	// In-flight datagram, header included; empty means the channel is idle
	// (a datagram always carries its header). The storage is kept.
	inflight []byte
	seq      uint32
	attempts int
	sentAt   sim.Time
	timer    sim.EventID
	timerSet bool

	// RFC 6298-style estimator, sampled only on first-attempt acks
	// (Karn's algorithm: a retransmitted datagram's ack is ambiguous).
	srtt   sim.Duration
	rttvar sim.Duration
	rto    sim.Duration
}

// Wire format: kind(1) seq(4) payload. Acks echo the seq, no payload.
const (
	relKind   = 0 // offset of the kind byte
	relSeq    = 1 // offset of the big-endian sequence number
	relHdrLen = 5

	relData = byte('D')
	relAck  = byte('A')
)

// NewReliable binds port on n and returns the transport endpoint.
func NewReliable(n *Node, port uint16, cfg ReliableConfig) (*Reliable, error) {
	cfg.fillDefaults()
	r := &Reliable{
		node:   n,
		k:      n.k,
		cfg:    cfg,
		port:   port,
		flows:  make(map[myrinet.MAC]*flow),
		expect: make(map[myrinet.MAC]uint32),
	}
	r.recv = r.onDatagram
	if _, err := n.Bind(port, r.recv); err != nil {
		return nil, err
	}
	return r, nil
}

// SetHandler registers the in-order delivery callback. data is valid only
// for the duration of the call, as for a socket handler: a handler that
// keeps the bytes copies them.
func (r *Reliable) SetHandler(fn func(src myrinet.MAC, data []byte)) { r.onData = fn }

// Stats returns a copy of the endpoint's aggregate counters.
func (r *Reliable) Stats() ReliableStats { return r.stats }

// Flows returns the destinations with sender state, in deterministic order.
func (r *Reliable) Flows() []myrinet.MAC {
	out := make([]myrinet.MAC, 0, len(r.flows))
	for m := range r.flows {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Outstanding counts datagrams not yet acknowledged or abandoned: in-flight
// plus queued, across all flows. It is the campaign's "work left" figure —
// a trial is done when Outstanding reaches zero.
func (r *Reliable) Outstanding() int {
	n := 0
	for _, f := range r.flows {
		if len(f.inflight) > 0 {
			n++
		}
		n += f.qLen
	}
	return n
}

// Send queues data for reliable delivery to dst. Per-flow stop-and-wait:
// the datagram transmits immediately if the flow is idle, otherwise waits
// its turn.
func (r *Reliable) Send(dst myrinet.MAC, data []byte) {
	f := r.flows[dst]
	if f == nil {
		f = &flow{r: r, dst: dst, rto: r.cfg.InitialRTO}
		r.flows[dst] = f
	}
	r.stats.Sent++
	if f.qLen == len(f.queue) {
		f.grow()
	}
	i := (f.qHead + f.qLen) % len(f.queue)
	f.queue[i] = append(f.queue[i][:0], data...)
	f.qLen++
	f.pump()
}

// grow adds a slot to the full ring: it rotates the ring so its entries
// start at slot 0, then extends it into spare capacity, whose slots may
// still hold storage from an earlier, deeper queue.
func (f *flow) grow() {
	slices.Reverse(f.queue[:f.qHead])
	slices.Reverse(f.queue[f.qHead:])
	slices.Reverse(f.queue)
	f.qHead = 0
	if n := len(f.queue); n < cap(f.queue) {
		f.queue = f.queue[:n+1]
	} else {
		f.queue = append(f.queue, nil)
	}
}

// pump transmits the next queued datagram when the flow is idle.
func (f *flow) pump() {
	if len(f.inflight) > 0 || f.qLen == 0 {
		return
	}
	data := f.queue[f.qHead]
	f.qHead = (f.qHead + 1) % len(f.queue)
	f.qLen--
	f.seq = f.nextSeq
	f.nextSeq++
	f.inflight = append(append(f.inflight[:0], relData, 0, 0, 0, 0), data...)
	binary.BigEndian.PutUint32(f.inflight[relSeq:], f.seq)
	f.attempts = 0
	f.transmit()
}

// transmit sends the in-flight datagram and arms the retransmission timer
// with the current RTO plus uniform jitter (so retransmissions from many
// flows hit a recovering network staggered, not in lockstep).
func (f *flow) transmit() {
	f.attempts++
	f.sentAt = f.r.k.Now()
	f.r.node.SendUDP(f.dst, f.r.port, f.r.port, f.inflight)
	wait := f.rto + sim.Duration(f.r.k.Rand().Int63n(int64(f.rto/4)+1))
	f.timer = f.r.k.AfterArg(wait, flowTimeout, f)
	f.timerSet = true
}

func flowTimeout(a any) { a.(*flow).onTimeout() }

func (f *flow) stopTimer() {
	if f.timerSet {
		f.r.k.Cancel(f.timer)
		f.timerSet = false
	}
}

// onTimeout retransmits with doubled RTO, or gives up past MaxRetries.
func (f *flow) onTimeout() {
	f.timerSet = false
	if len(f.inflight) == 0 {
		return
	}
	if f.attempts > f.r.cfg.MaxRetries {
		f.r.stats.GaveUp++
		f.inflight = f.inflight[:0]
		f.pump()
		return
	}
	f.r.stats.Retransmits++
	f.rto *= 2
	if f.rto > f.r.cfg.MaxRTO {
		f.rto = f.r.cfg.MaxRTO
	}
	f.transmit()
}

// onAck completes the in-flight datagram when the seq matches.
func (f *flow) onAck(seq uint32) {
	if len(f.inflight) == 0 || seq != f.seq {
		return // stale ack for an already-completed or abandoned datagram
	}
	f.stopTimer()
	if f.attempts == 1 {
		f.sampleRTT(f.r.k.Now() - f.sentAt)
	}
	f.r.stats.Delivered++
	f.inflight = f.inflight[:0]
	f.pump()
}

// sampleRTT folds one clean round-trip into the RFC 6298 estimator.
func (f *flow) sampleRTT(rtt sim.Duration) {
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
	} else {
		d := f.srtt - rtt
		if d < 0 {
			d = -d
		}
		f.rttvar = (3*f.rttvar + d) / 4
		f.srtt = (7*f.srtt + rtt) / 8
	}
	f.rto = f.srtt + 4*f.rttvar
	if f.rto < f.r.cfg.InitialRTO {
		f.rto = f.r.cfg.InitialRTO
	}
	if f.rto > f.r.cfg.MaxRTO {
		f.rto = f.r.cfg.MaxRTO
	}
}

// onDatagram demultiplexes data from acks on the bound port.
func (r *Reliable) onDatagram(src myrinet.MAC, srcPort uint16, dgram []byte) {
	if len(dgram) < relHdrLen {
		return
	}
	seq := binary.BigEndian.Uint32(dgram[relSeq:])
	switch dgram[relKind] {
	case relAck:
		r.stats.AcksReceived++
		if f, ok := r.flows[src]; ok {
			f.onAck(seq)
		}
	case relData:
		r.onDataFrame(src, seq, dgram[relHdrLen:])
	}
}

// onDataFrame acks every in-window data frame and delivers new ones in
// order. A duplicate (retransmit racing a lost ack) is re-acked but not
// re-delivered.
func (r *Reliable) onDataFrame(src myrinet.MAC, seq uint32, data []byte) {
	expected := r.expect[src]
	switch {
	case seq == expected:
		r.expect[src] = expected + 1
		r.sendAck(src, seq)
		if r.onData != nil {
			r.onData(src, data)
		}
	case seq < expected:
		r.stats.DupsDropped++
		r.sendAck(src, seq)
	default:
		// A gap: the sender gave up on an earlier datagram and moved on.
		// Accept the new sequence point so the flow keeps working.
		r.expect[src] = seq + 1
		r.sendAck(src, seq)
		if r.onData != nil {
			r.onData(src, data)
		}
	}
}

func (r *Reliable) sendAck(dst myrinet.MAC, seq uint32) {
	ack := make([]byte, relHdrLen)
	ack[relKind] = relAck
	binary.BigEndian.PutUint32(ack[relSeq:], seq)
	r.node.SendUDP(dst, r.port, r.port, ack)
}

// String renders the aggregate counters.
func (s ReliableStats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d retx=%d gaveup=%d dups=%d",
		s.Sent, s.Delivered, s.Retransmits, s.GaveUp, s.DupsDropped)
}
