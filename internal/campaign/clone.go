package campaign

import "netfi/internal/sim"

// Fork support (see sim/clone.go). A clone is a struct copy; what never
// crosses a fork is listed in the clone. Testbed.Clone is the top of the
// model graph's phase-2 pass: it forks the switch, the hosts with their
// interfaces, the cables, the spliced injector, and the serial console, in
// an order the mapper's Finish pass makes irrelevant. The caller owns
// phase 1 (Kernel.Clone into the world's mapper) and phase 3
// (Mapper.Finish), because a campaign usually clones more than the testbed
// — the monitoring plane, reliable endpoints, beacons — under one mapper.

// Clone forks the testbed into the mapper's world. The kernel must already
// be cloned into m.
func (tb *Testbed) Clone(m *sim.Mapper) *Testbed {
	tb2 := sim.Counterpart(m, tb)
	nodes, cables := tb2.Nodes, tb2.cables
	*tb2 = *tb
	tb2.K = m.Kernel()
	tb2.Switch = tb.Switch.Clone(m)
	tb2.Nodes = sim.Resize(nodes, len(tb.Nodes))
	tb2.cables = sim.Resize(cables, len(tb.cables))
	for i, n := range tb.Nodes {
		tb2.Nodes[i] = n.Clone(m)
		tb2.cables[i] = tb.cables[i].Clone(m)
	}
	if tb.Injector != nil {
		tb2.Injector = tb.Injector.Clone(m)
		tb2.Console = tb.Console.Clone(m)
	}
	if tb.load != nil {
		tb2.load = tb.load.clone(m, tb2)
	}
	return tb2
}

// Load returns the running workload, nil before StartLoad. A fork reaches
// its own copy through this accessor.
func (tb *Testbed) Load() *Load { return tb.load }

// clone forks the workload: counters, burst schedule state (pending
// loadTick events remap through the object table), and the per-node
// receiver handlers rebound onto the fork's sockets. The payload scratch
// stays behind.
func (l *Load) clone(m *sim.Mapper, tb2 *Testbed) *Load {
	l2 := sim.Counterpart(m, l)
	perNodeRecv, socks := l2.perNodeRecv, l2.socks
	*l2 = *l
	l2.tb, l2.buf = tb2, nil
	l2.perNodeRecv = append(perNodeRecv[:0], l.perNodeRecv...)
	l2.socks = sim.Resize(socks, len(l.socks))
	for i, s := range l.socks {
		sim.Rebind(m, &l2.socks[i], s)
	}
	m.Fix(bindLoad, l2)
	return l2
}

// bindLoad is the Mapper.Fix fix-up that hands a cloned workload's sockets
// their receivers, once Finish has rebound the sockets.
func bindLoad(a any) {
	l := a.(*Load)
	for i, s := range l.socks {
		s.SetHandler(l.receiver(i))
	}
}
