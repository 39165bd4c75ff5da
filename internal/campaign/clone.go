package campaign

import (
	"netfi/internal/host"
	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). A clone is a struct copy; what never
// crosses a fork is listed in the clone. Testbed.Clone is the top of the
// model graph's phase-2 pass: it forks the network container (switches,
// interfaces, cables), the hosts, the spliced injector, and the serial
// console, in an order the mapper's Finish pass makes irrelevant. The
// caller owns phase 1 (sim.NewMapper + Kernel.Clone) and phase 3
// (Mapper.Finish), because a campaign usually clones more than the testbed
// — the monitoring plane, reliable endpoints, beacons — under one mapper.

// Clone forks the testbed into the mapper's new world. The kernel must
// already be cloned into m.
func (tb *Testbed) Clone(m *sim.Mapper) *Testbed {
	tb2 := new(Testbed)
	*tb2 = *tb
	tb2.K = m.Kernel()
	m.Put(tb, tb2)
	tb2.Net = tb.Net.Clone(m)
	sim.Rebind(m, &tb2.Switch, tb.Switch)
	tb2.Nodes = make([]*host.Node, len(tb.Nodes))
	for i, n := range tb.Nodes {
		tb2.Nodes[i] = n.Clone(m)
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
	l2 := new(Load)
	*l2 = *l
	l2.tb, l2.buf = tb2, nil
	l2.perNodeRecv = append([]uint64(nil), l.perNodeRecv...)
	l2.socks = make([]*host.Socket, len(l.socks))
	m.Put(l, l2)
	for i, s := range l.socks {
		sim.Rebind(m, &l2.socks[i], s)
	}
	m.Defer(func() { // after every Rebind: l2.socks are the fork's
		for i, s := range l2.socks {
			s.SetHandler(l2.receiver(i))
		}
	})
	return l2
}
