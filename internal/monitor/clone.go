package monitor

import (
	"fmt"

	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). A clone is a struct copy; what never
// crosses a fork is listed in the clone. The monitoring plane's rules:
//
//   - Taps register in the mapper so the myrinet layer's tap rebinds
//     (LinkController.Clone) land on the fork's observation points.
//   - Probes are NOT cloned: their counter/gauge closures capture
//     campaign-owned objects of the old world. A campaign that wants probes
//     in the fork re-adds them post-fork against the cloned objects —
//     AddCounterProbe snapshots the counter at registration, so a re-added
//     probe sees no spurious delta.
//   - The export ring, flow caches, detectors, and the event log all deep
//     copy; the fork's detections diverge from the base from the fork point
//     on without back-propagating.

// Clone copies the accrual detector's inter-arrival window and clock.
func (d *PhiDetector) Clone() *PhiDetector {
	d2 := new(PhiDetector)
	*d2 = *d
	return d2
}

// Clone copies the export ring: buffered records, oldest first, into a
// backing array no larger than they need, and the drop accounting.
func (r *ExportRing) Clone() *ExportRing {
	r2 := new(ExportRing)
	*r2 = *r
	r2.buf, r2.head = nil, 0
	if r.count > 0 {
		r2.buf = make([]FlowRecord, r.count)
		c := copy(r2.buf, r.buf[r.head:])
		copy(r2.buf[c:], r.buf)
	}
	return r2
}

// Clone copies the flow table into ring (the fork plane's export ring). A
// flowState can sit in both the order slice (dead, pre-compaction) and the
// free list, so identity is preserved through a local translation map.
func (t *FlowTable) Clone(ring *ExportRing) *FlowTable {
	t2 := new(FlowTable)
	*t2 = *t
	t2.ring = ring
	t2.active = make(map[FlowKey]*flowState, len(t.active))
	t2.order, t2.free = nil, nil
	states := make(map[*flowState]*flowState, len(t.order)+len(t.free))
	dup := func(st *flowState) *flowState {
		if st2, ok := states[st]; ok {
			return st2
		}
		st2 := new(flowState)
		*st2 = *st
		states[st] = st2
		return st2
	}
	if len(t.order) > 0 {
		t2.order = make([]*flowState, len(t.order))
		for i, st := range t.order {
			t2.order[i] = dup(st)
		}
	}
	if len(t.free) > 0 {
		t2.free = make([]*flowState, len(t.free))
		for i, st := range t.free {
			t2.free[i] = dup(st)
		}
	}
	for key, st := range t.active {
		t2.active[key] = dup(st)
	}
	return t2
}

// clone copies the tap into the fork plane, registering it so stream owners
// (link controllers) rebind to it at Finish.
func (t *Tap) clone(m *sim.Mapper, p2 *Plane) *Tap {
	t2 := new(Tap)
	*t2 = *t // name, reassembly buffer, counters
	if t.flows != nil {
		t2.flows = t.flows.Clone(p2.ring)
	}
	if t.detector != nil {
		t2.detector = t.detector.Clone()
		m.Put(t.detector, t2.detector)
	}
	m.Put(t, t2)
	return t2
}

// Clone forks the monitoring plane: every tap with its flow cache and
// detectors, the shared export ring, the suspicion state machine, and the
// event log. The sampling timer carries its phase across the fork, so the
// fork's next pass lands exactly where the base's would have. Probes do not
// cross the fork (see the package rules above). A plane detector that no tap
// owns has no counterpart in the fork; it fails the fork through m.
func (p *Plane) Clone(m *sim.Mapper) *Plane {
	p2 := new(Plane)
	*p2 = *p
	p2.k = m.Kernel()
	p2.ring = p.ring.Clone()
	p2.events = append([]Event(nil), p.events...)
	p2.taps, p2.detectors, p2.probes = nil, nil, nil
	m.Put(p, p2)
	p.timer.CloneInto(m, &p2.timer, p2)
	if len(p.taps) > 0 {
		p2.taps = make([]*Tap, len(p.taps))
		for i, t := range p.taps {
			p2.taps[i] = t.clone(m, p2)
		}
	}
	if len(p.detectors) > 0 {
		p2.detectors = make([]*planeDetector, len(p.detectors))
		for i, pd := range p.detectors {
			v, ok := m.Lookup(pd.d)
			if !ok {
				m.Fail(fmt.Errorf("monitor: fork: detector %s does not belong to any tap", pd.name))
				continue
			}
			pd2 := new(planeDetector)
			*pd2 = *pd
			pd2.d = v.(*PhiDetector)
			p2.detectors[i] = pd2
		}
	}
	return p2
}
