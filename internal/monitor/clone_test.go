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
