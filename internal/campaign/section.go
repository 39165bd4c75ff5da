package campaign

import (
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// SectionOptions parameterizes every paper section: RunTable2, RunTable4
// and RunTable4Row, RunSec431 through RunSec434, RunPassThrough,
// RunMultiRule and RunMonitor.
//
// Scale multiplies the length of the four scaled sections; zero means 1. At
// scale 1 they run:
//
//   - Table 2: 20,000 ping-pong rounds per run (the paper used one million
//     small packets per side; the averages are the same), never fewer
//     than 1;
//   - Table 4: a 1.7 s load window per row (about 4000 messages at the
//     paper's offered load);
//   - §4.3.1: a 5 s measurement window per run (the paper measured a
//     minute; the rates are the same);
//   - §3.5 pass-through: a 2 s load window per run.
//
// §4.3.2–§4.3.4, multirule and the monitor demonstration run fixed
// scenarios that Scale does not change.
//
// Workers runs a section's independent simulations — Table 2's five
// experiments, Table 4's nine rows, §4.3.1's three runs, the four §4.3.2
// and §4.3.3 experiments, §4.3.4's two halves — on that many goroutines;
// <= 1 is serial, and results are identical either way. Pass-through,
// multirule and the monitor demonstration ignore it.
type SectionOptions struct {
	Seed    int64
	Scale   float64
	Workers int
}

// scale returns Scale, zero meaning 1.
func (o SectionOptions) scale() float64 {
	if o.Scale == 0 {
		return 1
	}
	return o.Scale
}

// rounds returns Table 2's ping-pong rounds per run.
func (o SectionOptions) rounds() int {
	return max(1, int(float64(20_000)*o.scale()))
}

// table4Duration, sec431Duration and passThroughDuration return the scaled
// sections' load windows, never shorter than one character period (as
// rounds never falls below 1): a window rounded to 0 ps would divide by it.
func (o SectionOptions) table4Duration() sim.Duration {
	return max(myrinet.CharPeriod, sim.Duration(1700*o.scale()*float64(sim.Millisecond)))
}

func (o SectionOptions) sec431Duration() sim.Duration {
	return max(myrinet.CharPeriod, sim.Duration(5*o.scale()*float64(sim.Second)))
}

func (o SectionOptions) passThroughDuration() sim.Duration {
	return max(myrinet.CharPeriod, sim.Duration(2*o.scale()*float64(sim.Second)))
}
