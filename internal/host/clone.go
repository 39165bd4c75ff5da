package host

import (
	"fmt"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). The host layer's cloning rules:
//
//   - A Node reuses its interface's clone when the network container already
//     produced one (the usual path), so the two views stay one object.
//   - Socket handlers are application closures: a Node clone carries the
//     socket (port, delivery count) with a nil handler, and each
//     application's own clone rebinds its handler. A socket whose owner is
//     not cloned silently discards deliveries in the fork — the same
//     behaviour as a nil handler at home.
//   - Applications resolve their node/socket in the deferred pass, so apps
//     and nodes may clone in any order.

// Clone forks the workstation: stack state, receive pipeline, sockets, and
// (if not already cloned via the network container) the Myrinet interface.
func (n *Node) Clone(m *sim.Mapper) *Node {
	n2 := &Node{
		k:           m.Kernel(),
		cfg:         n.cfg,
		sockets:     make(map[uint16]*Socket, len(n.sockets)),
		stats:       n.stats,
		recvBusy:    n.recvBusy,
		inRecv:      n.inRecv.clone(),
		sendReadyAt: n.sendReadyAt,
		dead:        n.dead,
	}
	if n.recvLen > 0 {
		n2.recvq = make([]queuedPacket, n.recvLen)
		for i := range n2.recvq {
			n2.recvq[i] = n.recvq[(n.recvHead+i)%len(n.recvq)].clone()
		}
		n2.recvLen = n.recvLen
	}
	m.Put(n, n2)
	if v, ok := m.Lookup(n.ifc); ok {
		n2.ifc = v.(*myrinet.Interface)
	} else {
		n2.ifc = n.ifc.Clone(m)
	}
	n2.ifc.SetDataHandler(n2.onDatagram)
	for port, s := range n.sockets {
		s2 := &Socket{node: n2, port: s.port, received: s.received}
		m.Put(s, s2)
		n2.sockets[port] = s2
	}
	return n2
}

func (p queuedPacket) clone() queuedPacket {
	p.data = append([]byte(nil), p.data...)
	return p
}

// Clone forks the reliable transport: every flow's stop-and-wait state,
// retransmission timers remapped, and the endpoint's port re-bound on the
// cloned node. The in-order delivery handler (SetHandler) is
// application-owned and must be re-registered post-fork.
func (r *Reliable) Clone(m *sim.Mapper) *Reliable {
	r2 := &Reliable{
		k:      m.Kernel(),
		cfg:    r.cfg,
		port:   r.port,
		flows:  make(map[myrinet.MAC]*flow, len(r.flows)),
		expect: make(map[myrinet.MAC]uint32, len(r.expect)),
		stats:  r.stats,
	}
	for mac, seq := range r.expect {
		r2.expect[mac] = seq
	}
	m.Put(r, r2)
	for mac, f := range r.flows {
		r2.flows[mac] = f.clone(m, r2)
	}
	m.Defer(func() error {
		v, ok := m.Lookup(r.node)
		if !ok {
			return fmt.Errorf("host: fork: reliable endpoint on uncloned node %s", r.node.Name())
		}
		n2 := v.(*Node)
		r2.node = n2
		if s, ok := n2.sockets[r.port]; ok {
			s.handler = r2.onDatagram
		}
		return nil
	})
	return r2
}

func (f *flow) clone(m *sim.Mapper, r2 *Reliable) *flow {
	f2 := &flow{
		r:        r2,
		dst:      f.dst,
		nextSeq:  f.nextSeq,
		seq:      f.seq,
		attempts: f.attempts,
		sentAt:   f.sentAt,
		timer:    m.MapEventID(f.timer),
		timerSet: f.timerSet,
		srtt:     f.srtt,
		rttvar:   f.rttvar,
		rto:      f.rto,
		stats:    f.stats,
	}
	if len(f.queue) > 0 {
		f2.queue = make([][]byte, len(f.queue))
		for i, d := range f.queue {
			f2.queue[i] = append([]byte(nil), d...)
		}
	}
	if f.inflight != nil {
		f2.inflight = append([]byte(nil), f.inflight...)
	}
	m.Put(f, f2)
	return f2
}

// Clone forks the heartbeat beacon.
func (h *Heartbeat) Clone(m *sim.Mapper) *Heartbeat {
	h2 := &Heartbeat{
		k:       m.Kernel(),
		dst:     h.dst,
		payload: append([]byte(nil), h.payload...),
		until:   h.until,
		sent:    h.sent,
		running: h.running,
	}
	m.Put(h, h2)
	m.Defer(func() error {
		v, ok := m.Lookup(h.node)
		if !ok {
			return fmt.Errorf("host: fork: heartbeat on uncloned node %s", h.node.Name())
		}
		h2.node = v.(*Node)
		return nil
	})
	return h2
}
