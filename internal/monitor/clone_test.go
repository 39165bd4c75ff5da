package monitor

import (
	"strings"
	"testing"

	"netfi/internal/sim"
)

// A plane detector that no tap owns has no counterpart in a fork: cloning
// the plane fails the fork with an error naming it instead of panicking.
func TestForkFailsOnDetectorWithoutTap(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{})
	p.NewTap("owned", TapOptions{Detect: true})
	p.detectors = append(p.detectors, &planeDetector{name: "orphan", d: NewPhiDetector(p.cfg.Phi)})
	m := sim.NewMapper()
	k.Clone(m)
	p.Clone(m)
	if err := m.Finish(); err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Fatalf("fork of a plane with an orphan detector: err = %v", err)
	}
}

// A fork into a used world leaves the world's flow table holding exactly
// the base's flows: a flow an earlier fork left there and the base has
// since expired must not survive, and a flow both hold takes the base's
// state.
func TestFlowTableForkIntoUsedWorld(t *testing.T) {
	k := sim.NewKernel(1)
	p := NewPlane(k, Config{})
	base := p.NewTap("t", TapOptions{Flows: true}).Flows()
	a := FlowKey{Src: [6]byte{1}, Dst: [6]byte{2}}
	b := FlowKey{Src: [6]byte{3}, Dst: [6]byte{4}}
	base.Observe(b, 20, 0)
	base.Observe(a, 10, 40*sim.Millisecond)

	m := sim.NewMapper()
	fork := func() *FlowTable {
		k.Clone(m)
		p2 := p.Clone(m)
		if err := m.Finish(); err != nil {
			t.Fatal(err)
		}
		return p2.taps[0].flows
	}
	if w := fork(); w.Active() != 2 {
		t.Fatalf("first fork holds %d flows, want 2", w.Active())
	}

	// The base expires b and sees one more packet of a.
	if n := base.ExpireIdle(50 * sim.Millisecond); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	base.Observe(a, 30, 45*sim.Millisecond)

	w := fork()
	if len(w.active) != 1 || w.active[b] != nil {
		t.Fatalf("world holds %d flows (b present: %v), want exactly a", len(w.active), w.active[b] != nil)
	}
	st := w.active[a]
	if st == nil || st == base.active[a] || st.rec != base.active[a].rec {
		t.Fatalf("world's a = %+v, want a copy of the base's %+v", st, base.active[a])
	}
	if len(w.order) != len(base.order) || w.order[0] != st {
		t.Fatalf("world's order holds %d flows, base %d", len(w.order), len(base.order))
	}
}
