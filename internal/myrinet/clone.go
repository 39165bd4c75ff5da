package myrinet

import (
	"fmt"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). A clone is a struct copy; what never
// crosses a fork is listed in the clone. The myrinet layer's rules:
//
//   - Counters are frequently shared between a port and its link controller,
//     so they clone through a lookup-or-copy helper that registers the first
//     copy and reuses it for every later reference.
//   - Nothing wired at construction time is a closure. Timers call static
//     trampolines with their owner as the argument, the slack buffer
//     reports to its controller, and the controller to its consumer
//     (linkConsumer); all are embedded or held by interface, so a clone
//     rebinds them by pointing the copy at the new-world owner.
//   - Cross-references that span devices (a controller's output link, a tap,
//     a queued packet's completion) resolve through sim.Rebind, so clone
//     order never matters.
//   - A queued txPacket's completion is an interface (an Interface's own
//     sends), rebound like any other cross-reference.
//   - The published mapping snapshot is shared: a new round replaces it,
//     never mutates it.

// cloneCounters returns the fork's copy of c, copying it on first sight in
// the fork. Shared counters (a switch port and its controller point at the
// same struct) stay shared in the fork.
func cloneCounters(m *sim.Mapper, c *Counters) *Counters {
	if c == nil {
		return nil
	}
	if v, ok := m.Lookup(c); ok {
		return v.(*Counters)
	}
	c2 := sim.Counterpart(m, c)
	*c2 = *c
	return c2
}

// cloneInto copies the buffer into s2, reporting to wm, on the ring s2 had.
// An empty buffer's ring is not copied: the fork's first push reuses s2's
// or allocates one.
func (s *SlackBuffer) cloneInto(s2 *SlackBuffer, wm watermarks) {
	keep := s2.buf
	*s2 = *s
	s2.wm = wm
	if s.count == 0 {
		s2.buf, s2.head = keep[:0], 0
		return
	}
	s2.buf = append(keep[:0], s.buf...)
}

// clone copies one queued packet into p2, its stream into a fresh buffer of
// the fork kernel's pool. The completion rebinds at Finish through p2, so p2
// must stay put until the fork completes.
func (p *txPacket) clone(m *sim.Mapper, p2 *txPacket) {
	*p2 = *p
	p2.chars = phy.PoolOf(m.Kernel()).Get(len(p.chars))
	copy(p2.chars, p.chars)
	if p.done != nil {
		sim.Rebind(m, &p2.done, p.done)
	}
}

// Clone forks the link controller. The consumer is left nil: the owning port
// or interface registers its own clone when it clones itself. Only the live
// packet queue (txq[txHead:]) and stream backlog (streamBuf[streamPos:])
// cross, compacted to the front.
func (lc *LinkController) Clone(m *sim.Mapper) *LinkController {
	lc2 := sim.Counterpart(m, lc)
	txq, stream, ring := lc2.txq, lc2.streamBuf, lc2.slack.buf
	*lc2 = *lc
	lc2.k, lc2.pool = m.Kernel(), phy.PoolOf(m.Kernel())
	lc2.ctr = cloneCounters(m, lc.ctr)
	lc2.consumer = nil
	lc2.cur, lc2.txHead = txPacket{}, 0
	lc.shortTimer.CloneInto(m, &lc2.shortTimer, lc2)
	lc.longTimer.CloneInto(m, &lc2.longTimer, lc2)
	if lc.stopWatchdog.Bound() {
		lc.stopWatchdog.CloneInto(m, &lc2.stopWatchdog, lc2)
	}
	if lc.sending {
		lc.cur.clone(m, &lc2.cur)
	}
	q := lc.txq[lc.txHead:]
	lc2.txq = sim.Resize(txq, len(q))
	for i := range q {
		q[i].clone(m, &lc2.txq[i])
	}
	lc2.streamBuf, lc2.streamPos = append(stream[:0], lc.streamBuf[lc.streamPos:]...), 0
	lc2.slack.buf = ring
	lc.slack.cloneInto(&lc2.slack, lc2)
	lc2.refreshEvent = m.MapEventID(lc.refreshEvent)
	sim.Rebind(m, &lc2.out, lc.out)
	if lc.tap != nil {
		sim.Rebind(m, &lc2.tap, lc.tap)
	}
	return lc2
}

// Clone forks the switch: every port's FSM state, controller, and watchdog,
// with intra-switch cross-references (held outputs, waiter queues) resolved
// by port index. The world's recycled wake records stay its own.
func (sw *Switch) Clone(m *sim.Mapper) *Switch {
	sw2 := sim.Counterpart(m, sw)
	ports, wakes := sw2.ports, sw2.freeWakes
	*sw2 = *sw
	sw2.k, sw2.freeWakes = m.Kernel(), wakes
	sw2.ports = sim.Resize(ports, len(sw.ports))
	for i, p := range sw.ports {
		p2 := sim.Counterpart(m, p)
		typeBytes, waiters := p2.typeBytes, p2.waiters
		*p2 = *p
		p2.sw = sw2
		p2.ctr = cloneCounters(m, p.ctr)
		p2.typeBytes, p2.waiters = append(typeBytes[:0], p.typeBytes...), waiters[:0]
		sw2.ports[i] = p2
	}
	// Second pass: everything that references other ports of this switch.
	port := func(p *switchPort) *switchPort {
		if p == nil {
			return nil
		}
		return sw2.ports[p.index]
	}
	for i, p := range sw.ports {
		p2 := sw2.ports[i]
		if p.lc != nil {
			p2.lc = p.lc.Clone(m)
			p2.lc.setConsumer(p2)
		}
		p2.outPort, p2.owner = port(p.outPort), port(p.owner)
		for _, w := range p.waiters {
			p2.waiters = append(p2.waiters, port(w))
		}
		if p.blockedTimer.Bound() {
			p.blockedTimer.CloneInto(m, &p2.blockedTimer, p2)
		}
	}
	return sw2
}

// clone forks the MCP. The last snapshot is shared (it is immutable once
// published — a new round replaces, never mutates, it).
func (mc *MCP) clone(m *sim.Mapper, ifc2 *Interface) *MCP {
	m2 := sim.Counterpart(m, mc)
	probes := m2.probes
	*m2 = *mc
	m2.ifc = ifc2
	if probes == nil {
		probes = make(map[uint16]*probe, len(mc.probes))
	}
	clear(probes)
	for s, pr := range mc.probes {
		pr2 := new(probe)
		*pr2 = *pr
		pr2.route = append([]byte(nil), pr.route...)
		if pr.entry != nil {
			e := *pr.entry
			e.Route = append([]byte(nil), pr.entry.Route...)
			e.InPorts = append([]byte(nil), pr.entry.InPorts...)
			pr2.entry = &e
		}
		probes[s] = pr2
	}
	m2.probes = probes
	mc.watchdog.CloneInto(m, &m2.watchdog, m2)
	return m2
}

// Clone forks the interface: stream parser state, routing table, controller,
// and MCP. The host-side data handler stays behind; the owning Node's clone
// binds its own. An interface with a route resolver cannot fork (the
// resolver closes over the fabric's topology); the clone goes on without it
// and fails the fork.
func (ifc *Interface) Clone(m *sim.Mapper) *Interface {
	if ifc.resolver != nil {
		m.Fail(fmt.Errorf("myrinet: fork: interface %s has a route resolver; fabric interfaces do not fork", ifc.cfg.Name))
	}
	ifc2 := sim.Counterpart(m, ifc)
	assembling, routes := ifc2.assembling, ifc2.routes
	*ifc2 = *ifc
	ifc2.k, ifc2.resolver, ifc2.routeBuf, ifc2.onData = m.Kernel(), nil, nil, nil
	ifc2.ctr = cloneCounters(m, ifc.ctr)
	ifc2.assembling = append(assembling[:0], ifc.assembling...)
	ifc2.routes = nil
	if ifc.routes != nil {
		// Each route is the table's own copy (SetRoute), so the world's
		// route slices can take the base's bytes.
		if routes == nil {
			routes = make(map[MAC][]byte, len(ifc.routes))
		}
		for mac := range routes {
			if _, ok := ifc.routes[mac]; !ok {
				delete(routes, mac)
			}
		}
		for mac, r := range ifc.routes {
			routes[mac] = append(routes[mac][:0], r...)
		}
		ifc2.routes = routes
	}
	if ifc.lc != nil {
		ifc2.lc = ifc.lc.Clone(m)
		ifc2.lc.setConsumer(ifc2)
	}
	ifc2.mcp = ifc.mcp.clone(m, ifc2)
	return ifc2
}
