package host

import (
	"maps"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). A clone is a struct copy; what never
// crosses a fork is listed in the clone. The host layer's rules:
//
//   - A Node reuses its interface's clone when the network container already
//     produced one (the usual path), so the two views stay one object.
//   - Socket handlers are application closures: a Node clone carries the
//     socket (port, delivery count) with a nil handler, and each
//     application's own clone rebinds its handler. A socket whose owner is
//     not cloned silently discards deliveries in the fork — the same
//     behaviour as a nil handler at home.
//   - Recycled send records stay behind: the fork's free list starts empty.
//   - Applications rebind their node at Finish, so apps and nodes may clone
//     in any order.

// Clone forks the workstation: stack state, receive pipeline (compacted to
// the front of the ring), sockets, and (if not already cloned via the
// network container) the Myrinet interface.
func (n *Node) Clone(m *sim.Mapper) *Node {
	n2 := new(Node)
	*n2 = *n
	n2.k = m.Kernel()
	n2.inRecv = n.inRecv.clone()
	n2.recvq, n2.recvHead = nil, 0
	if n.recvLen > 0 {
		n2.recvq = make([]queuedPacket, n.recvLen)
		for i := range n2.recvq {
			n2.recvq[i] = n.recvq[(n.recvHead+i)%len(n.recvq)].clone()
		}
	}
	n2.freeSends = nil
	n2.sockets = make(map[uint16]*Socket, len(n.sockets))
	m.Put(n, n2)
	if v, ok := m.Lookup(n.ifc); ok {
		n2.ifc = v.(*myrinet.Interface)
	} else {
		n2.ifc = n.ifc.Clone(m)
	}
	n2.ifc.SetDataHandler(n2.onDatagram)
	for port, s := range n.sockets {
		s2 := new(Socket)
		*s2 = *s
		s2.node, s2.handler = n2, nil
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
	r2 := new(Reliable)
	*r2 = *r
	r2.k, r2.onData = m.Kernel(), nil
	r2.flows = make(map[myrinet.MAC]*flow, len(r.flows))
	r2.expect = maps.Clone(r.expect)
	m.Put(r, r2)
	for mac, f := range r.flows {
		r2.flows[mac] = f.clone(m, r2)
	}
	sim.Rebind(m, &r2.node, r.node)
	m.Defer(func() { // after every Rebind: r2.node is the fork's
		if s, ok := r2.node.sockets[r.port]; ok {
			s.handler = r2.onDatagram
		}
	})
	return r2
}

func (f *flow) clone(m *sim.Mapper, r2 *Reliable) *flow {
	f2 := new(flow)
	*f2 = *f
	f2.r = r2
	f2.timer = m.MapEventID(f.timer)
	f2.queue = nil
	if len(f.queue) > 0 {
		f2.queue = make([][]byte, len(f.queue))
		for i, d := range f.queue {
			f2.queue[i] = append([]byte(nil), d...)
		}
	}
	f2.inflight = append([]byte(nil), f.inflight...)
	m.Put(f, f2)
	return f2
}

// Clone forks the heartbeat beacon.
func (h *Heartbeat) Clone(m *sim.Mapper) *Heartbeat {
	h2 := new(Heartbeat)
	*h2 = *h
	h2.k = m.Kernel()
	h2.payload = append([]byte(nil), h.payload...)
	m.Put(h, h2)
	sim.Rebind(m, &h2.node, h.node)
	return h2
}
