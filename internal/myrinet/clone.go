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
//   - Queued txPackets survive only with interface-form completions (an
//     Interface's own sends); a pending closure completion (EnqueuePacket)
//     fails the fork loudly.
//   - The published mapping snapshot is shared: a new round replaces it,
//     never mutates it.

// cloneCounters returns the fork's copy of c, creating and registering it on
// first sight. Shared counters (a switch port and its controller point at the
// same struct) stay shared in the fork.
func cloneCounters(m *sim.Mapper, c *Counters) *Counters {
	if c == nil {
		return nil
	}
	if v, ok := m.Lookup(c); ok {
		return v.(*Counters)
	}
	c2 := new(Counters)
	*c2 = *c
	m.Put(c, c2)
	return c2
}

// cloneInto copies the buffer into s2, reporting to wm. An empty buffer's
// ring is not copied: the fork's first push allocates one.
func (s *SlackBuffer) cloneInto(s2 *SlackBuffer, wm watermarks) {
	*s2 = *s
	s2.wm = wm
	if s.count == 0 {
		s2.buf, s2.head = nil, 0
		return
	}
	s2.buf = append([]phy.Character(nil), s.buf...)
}

// clone copies one queued packet into p2, its stream into a fresh buffer of
// the fork kernel's pool. The interface-form completion rebinds at Finish
// through p2, so p2 must stay put until the fork completes; a closure-form
// completion cannot cross a fork and fails it.
func (p *txPacket) clone(m *sim.Mapper, owner string, p2 *txPacket) {
	*p2 = *p
	p2.chars = phy.PoolOf(m.Kernel()).Get(len(p.chars))
	copy(p2.chars, p.chars)
	if p.onDone != nil {
		m.Fail(fmt.Errorf("myrinet: fork: %s has a queued packet with a closure completion", owner))
	}
	if p.done != nil {
		sim.Rebind(m, &p2.done, p.done)
	}
}

// Clone forks the link controller. The consumer is left nil: the owning port
// or interface registers its own clone when it clones itself. Only the live
// packet queue (txq[txHead:]) and stream backlog (streamBuf[streamPos:])
// cross, compacted to the front.
func (lc *LinkController) Clone(m *sim.Mapper) *LinkController {
	lc2 := new(LinkController)
	*lc2 = *lc
	lc2.k, lc2.pool = m.Kernel(), phy.PoolOf(m.Kernel())
	lc2.ctr = cloneCounters(m, lc.ctr)
	lc2.consumer = nil
	lc2.cur, lc2.txq, lc2.txHead = txPacket{}, nil, 0
	m.Put(lc, lc2)
	lc.shortTimer.CloneInto(m, &lc2.shortTimer, lc2)
	lc.longTimer.CloneInto(m, &lc2.longTimer, lc2)
	if lc.stopWatchdog.Bound() {
		lc.stopWatchdog.CloneInto(m, &lc2.stopWatchdog, lc2)
	}
	if lc.sending {
		lc.cur.clone(m, lc.name, &lc2.cur)
	}
	if q := lc.txq[lc.txHead:]; len(q) > 0 {
		lc2.txq = make([]txPacket, len(q))
		for i := range q {
			q[i].clone(m, lc.name, &lc2.txq[i])
		}
	}
	lc2.streamBuf, lc2.streamPos = append([]phy.Character(nil), lc.streamBuf[lc.streamPos:]...), 0
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
// by port index. Recycled wake records stay behind.
func (sw *Switch) Clone(m *sim.Mapper) *Switch {
	sw2 := new(Switch)
	*sw2 = *sw
	sw2.k, sw2.freeWakes = m.Kernel(), nil
	sw2.ports = make([]*switchPort, len(sw.ports))
	m.Put(sw, sw2)
	for i, p := range sw.ports {
		p2 := new(switchPort)
		*p2 = *p
		p2.sw = sw2
		p2.ctr = cloneCounters(m, p.ctr)
		p2.typeBytes = append([]byte(nil), p.typeBytes...)
		m.Put(p, p2)
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
		p2.outPort, p2.owner, p2.waiters = port(p.outPort), port(p.owner), nil
		if len(p.waiters) > 0 {
			p2.waiters = make([]*switchPort, len(p.waiters))
			for j, w := range p.waiters {
				p2.waiters[j] = port(w)
			}
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
	m2 := new(MCP)
	*m2 = *mc
	m2.ifc = ifc2
	m2.probes = make(map[uint16]*probe, len(mc.probes))
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
		m2.probes[s] = pr2
	}
	m.Put(mc, m2)
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
	ifc2 := new(Interface)
	*ifc2 = *ifc
	ifc2.k, ifc2.resolver, ifc2.routeBuf, ifc2.onData = m.Kernel(), nil, nil, nil
	ifc2.ctr = cloneCounters(m, ifc.ctr)
	ifc2.assembling = append([]byte(nil), ifc.assembling...)
	if ifc.routes != nil {
		ifc2.routes = make(map[MAC][]byte, len(ifc.routes))
		for mac, r := range ifc.routes {
			ifc2.routes[mac] = append([]byte(nil), r...)
		}
	}
	m.Put(ifc, ifc2)
	if ifc.lc != nil {
		ifc2.lc = ifc.lc.Clone(m)
		ifc2.lc.setConsumer(ifc2)
	}
	ifc2.mcp = ifc.mcp.clone(m, ifc2)
	return ifc2
}

// Clone forks the whole network container: switches, interfaces, and cables.
// The kernel must already be cloned into m (phase 1).
func (n *Network) Clone(m *sim.Mapper) *Network {
	n2 := new(Network)
	*n2 = *n
	n2.Kernel = m.Kernel()
	n2.Switches = make([]*Switch, len(n.Switches))
	n2.Interfaces = make([]*Interface, len(n.Interfaces))
	n2.Cables = make(map[string]*phy.Cable, len(n.Cables))
	m.Put(n, n2)
	// nullReceiver is a stateless placeholder left as a link destination
	// only on half-wired topologies; it maps to itself.
	m.Put(nullReceiver{}, nullReceiver{})
	for i, sw := range n.Switches {
		n2.Switches[i] = sw.Clone(m)
	}
	for i, ifc := range n.Interfaces {
		n2.Interfaces[i] = ifc.Clone(m)
	}
	for name, c := range n.Cables {
		n2.Cables[name] = c.Clone(m)
	}
	return n2
}
