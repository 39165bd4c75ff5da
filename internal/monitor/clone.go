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
//     probe sees no spurious delta. The probe records' storage is the
//     world's: re-adding probes in a used world allocates nothing.
//   - The export ring, flow caches, detectors, and the event log all deep
//     copy; the fork's detections diverge from the base from the fork point
//     on without back-propagating.

// cloneInto copies the export ring into r2: buffered records, oldest first,
// into r2's backing array, compacted to the front, and the drop accounting.
func (r *ExportRing) cloneInto(r2 *ExportRing) {
	buf := r2.buf
	*r2 = *r
	r2.buf, r2.head = buf[:0], 0
	for i := 0; i < r.count; i++ {
		r2.buf = append(r2.buf, r.buf[(r.head+i)%len(r.buf)])
	}
}

// clone copies the flow table into ring (the fork plane's export ring). A
// flowState can sit in both the order slice (dead, pre-compaction) and the
// free list, so each is copied on first sight in the fork and reused after.
func (t *FlowTable) clone(m *sim.Mapper, ring *ExportRing) *FlowTable {
	t2 := sim.Counterpart(m, t)
	active, order, free := t2.active, t2.order, t2.free
	*t2 = *t
	t2.ring = ring
	dup := func(st *flowState) *flowState {
		if st2, ok := m.Lookup(st); ok {
			return st2.(*flowState)
		}
		st2 := sim.Counterpart(m, st)
		*st2 = *st
		return st2
	}
	t2.order, t2.free = order[:0], free[:0]
	for _, st := range t.order {
		t2.order = append(t2.order, dup(st))
	}
	for _, st := range t.free {
		t2.free = append(t2.free, dup(st))
	}
	if active == nil {
		active = make(map[FlowKey]*flowState, len(t.active))
	}
	clear(active)
	for key, st := range t.active {
		active[key] = dup(st)
	}
	t2.active = active
	return t2
}

// clone copies the tap into the fork plane, registering it so stream owners
// (link controllers) rebind to it at Finish.
func (t *Tap) clone(m *sim.Mapper, p2 *Plane) *Tap {
	t2 := sim.Counterpart(m, t)
	*t2 = *t // name, reassembly buffer, counters
	if t.flows != nil {
		t2.flows = t.flows.clone(m, p2.ring)
	}
	if t.detector != nil {
		t2.detector = sim.Counterpart(m, t.detector)
		*t2.detector = *t.detector // the inter-arrival window is an array
	}
	return t2
}

// Clone forks the monitoring plane: every tap with its flow cache and
// detectors, the shared export ring, the suspicion state machine, and the
// event log. The sampling timer carries its phase across the fork, so the
// fork's next pass lands exactly where the base's would have. Probes do not
// cross the fork (see the package rules above). A plane detector that no tap
// owns has no counterpart in the fork; it fails the fork through m.
func (p *Plane) Clone(m *sim.Mapper) *Plane {
	p2 := sim.Counterpart(m, p)
	ring, taps, detectors, probes, events := p2.ring, p2.taps, p2.detectors, p2.probes, p2.events
	*p2 = *p
	p2.k = m.Kernel()
	if ring == nil {
		ring = new(ExportRing)
	}
	p.ring.cloneInto(ring)
	p2.ring = ring
	p2.events = append(events[:0], p.events...)
	p2.taps, p2.detectors, p2.probes = taps[:0], detectors[:0], probes[:0]
	p.timer.CloneInto(m, &p2.timer, p2)
	for _, t := range p.taps {
		p2.taps = append(p2.taps, t.clone(m, p2))
	}
	for _, pd := range p.detectors {
		v, ok := m.Lookup(pd.d)
		if !ok {
			m.Fail(fmt.Errorf("monitor: fork: detector %s does not belong to any tap", pd.name))
			continue
		}
		pd2 := sim.Counterpart(m, pd)
		*pd2 = *pd
		pd2.d = v.(*PhiDetector)
		p2.detectors = append(p2.detectors, pd2)
	}
	return p2
}
