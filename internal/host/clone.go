package host

import (
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
//   - Recycled send records and receive buffers are the world's: a fork
//     into a used world keeps them, a first fork starts without.
//   - Applications rebind their node at Finish, so apps and nodes may clone
//     in any order.

// Clone forks the workstation: stack state, receive pipeline (compacted to
// the front of the ring), sockets, and the Myrinet interface.
func (n *Node) Clone(m *sim.Mapper) *Node {
	n2 := sim.Counterpart(m, n)
	recv, recvq, inRecv, sockets, freeSends := n2.recv, n2.recvq, n2.inRecv.data, n2.sockets, n2.freeSends
	*n2 = *n
	n2.k, n2.freeSends = m.Kernel(), freeSends
	if recv == nil {
		recv = n2.onDatagram
	}
	n2.recv = recv
	n2.inRecv.data = append(inRecv[:0], n.inRecv.data...)
	n2.recvq, n2.recvHead = sim.Resize(recvq, n.recvLen), 0
	for i := range n2.recvq {
		p := n.recvq[(n.recvHead+i)%len(n.recvq)]
		p.data = append(n2.recvq[i].data[:0], p.data...)
		n2.recvq[i] = p
	}
	if sockets == nil {
		sockets = make(map[uint16]*Socket, len(n.sockets))
	}
	clear(sockets)
	n2.sockets = sockets
	n2.ifc = n.ifc.Clone(m)
	n2.ifc.SetDataHandler(n2.recv)
	for port, s := range n.sockets {
		s2 := sim.Counterpart(m, s)
		*s2 = *s
		s2.node, s2.handler = n2, nil
		sockets[port] = s2
	}
	return n2
}

// Clone forks the reliable transport: every flow's stop-and-wait state,
// retransmission timers remapped, and the endpoint's port re-bound on the
// cloned node. The in-order delivery handler (SetHandler) is
// application-owned and must be re-registered post-fork.
func (r *Reliable) Clone(m *sim.Mapper) *Reliable {
	r2 := sim.Counterpart(m, r)
	recv, flows, expect := r2.recv, r2.flows, r2.expect
	*r2 = *r
	r2.k, r2.onData = m.Kernel(), nil
	if recv == nil {
		recv = r2.onDatagram
	}
	r2.recv = recv
	if flows == nil {
		flows = make(map[myrinet.MAC]*flow, len(r.flows))
	}
	clear(flows)
	r2.flows = flows
	r2.expect = sim.RefillMap(expect, r.expect)
	for mac, f := range r.flows {
		flows[mac] = f.clone(m, r2)
	}
	sim.Rebind(m, &r2.node, r.node)
	m.Fix(bindReliable, r2)
	return r2
}

// bindReliable is the Mapper.Fix fix-up that hands a cloned endpoint's
// socket its handler, once Finish has rebound the endpoint's node.
func bindReliable(a any) {
	r := a.(*Reliable)
	if s, ok := r.node.sockets[r.port]; ok {
		s.handler = r.recv
	}
}

func (f *flow) clone(m *sim.Mapper, r2 *Reliable) *flow {
	f2 := sim.Counterpart(m, f)
	queue, inflight := f2.queue, f2.inflight
	*f2 = *f
	f2.r = r2
	f2.timer = m.MapEventID(f.timer)
	f2.queue, f2.qHead = sim.Resize(queue, f.qLen), 0 // compacted to the front
	for i := range f2.queue {
		f2.queue[i] = append(f2.queue[i][:0], f.queue[(f.qHead+i)%len(f.queue)]...)
	}
	f2.inflight = append(inflight[:0], f.inflight...)
	return f2
}

// Clone forks the heartbeat beacon.
func (h *Heartbeat) Clone(m *sim.Mapper) *Heartbeat {
	h2 := sim.Counterpart(m, h)
	payload := h2.payload
	*h2 = *h
	h2.k = m.Kernel()
	h2.payload = append(payload[:0], h.payload...)
	sim.Rebind(m, &h2.node, h.node)
	return h2
}
