package synth

import (
	"math"
	"strings"
	"testing"
)

// within reports whether est is inside tol (fractional) of want; zero wants
// demand small absolute estimates.
func within(est, want int, tol float64) bool {
	if want == 0 {
		return est <= 2
	}
	return math.Abs(float64(est-want)) <= tol*float64(want)
}

func TestEstimatesTrackPaperTable1(t *testing.T) {
	const tol = 0.25
	for _, e := range InjectorEntities() {
		paper, ok := PaperTable1[e.Name]
		if !ok {
			t.Fatalf("no paper row for entity %q", e.Name)
		}
		est := e.Estimate()
		if !within(est.FunctionGenerators, paper.FunctionGenerators, tol) {
			t.Errorf("%s FGs: est %d vs paper %d (beyond %.0f%%)", e.Name, est.FunctionGenerators, paper.FunctionGenerators, tol*100)
		}
		if !within(est.DFlipFlops, paper.DFlipFlops, tol) {
			t.Errorf("%s DFFs: est %d vs paper %d", e.Name, est.DFlipFlops, paper.DFlipFlops)
		}
		if !within(est.Multiplexors, paper.Multiplexors, tol) {
			t.Errorf("%s muxes: est %d vs paper %d", e.Name, est.Multiplexors, paper.Multiplexors)
		}
		if !within(est.Gates, paper.Gates, tol+0.15) { // gate metric is loosest
			t.Errorf("%s gates: est %d vs paper %d", e.Name, est.Gates, paper.Gates)
		}
	}
}

func TestEstimatedTotalNearPaperTotal(t *testing.T) {
	est := EstimatedTotal()
	if !within(est.FunctionGenerators, PaperTotal.FunctionGenerators, 0.2) {
		t.Errorf("total FGs: est %d vs paper %d", est.FunctionGenerators, PaperTotal.FunctionGenerators)
	}
	if !within(est.DFlipFlops, PaperTotal.DFlipFlops, 0.2) {
		t.Errorf("total DFFs: est %d vs paper %d", est.DFlipFlops, PaperTotal.DFlipFlops)
	}
	if !within(est.Multiplexors, PaperTotal.Multiplexors, 0.2) {
		t.Errorf("total muxes: est %d vs paper %d", est.Multiplexors, PaperTotal.Multiplexors)
	}
}

func TestPaperTotalsSumFromRows(t *testing.T) {
	// The printed Total row equals the column sums with ONE FIFO_Inject
	// row (despite the two-instance caption); verify our transcription.
	var sum Resources
	for _, r := range PaperTable1 {
		sum.Add(r)
	}
	if sum != PaperTotal {
		t.Errorf("paper rows sum to %+v, printed total %+v", sum, PaperTotal)
	}
}

func TestEstimateRules(t *testing.T) {
	e := Entity{
		Name:        "probe",
		RegBits:     10,
		FSMStates:   4,
		CounterBits: 8,
		Logic:       []LogicTerm{{Inputs: 4, Outputs: 6}, {Inputs: 10, Outputs: 2}},
		Muxes:       []Mux{{Width: 8, K: 4}},
	}
	r := e.Estimate()
	if r.DFlipFlops != 22 {
		t.Errorf("DFFs = %d, want 22 (10+4+8)", r.DFlipFlops)
	}
	// FG: counters 8 + 6*1 + 2*3 = 20.
	if r.FunctionGenerators != 20 {
		t.Errorf("FGs = %d, want 20", r.FunctionGenerators)
	}
	if r.Multiplexors != 24 {
		t.Errorf("muxes = %d, want 24 (8*(4-1))", r.Multiplexors)
	}
	if r.Gates != 19 { // round(0.96*20)
		t.Errorf("gates = %d, want 19", r.Gates)
	}
}

func TestEstimateScalesWithArchitecture(t *testing.T) {
	// Doubling the FIFO depth must grow the FIFO entity's estimate — the
	// model is structural, not a lookup table.
	base := InjectorEntities()[5]
	grown := base
	grown.RegBits += fifoDepth * charBits // double the storage
	if grown.Estimate().DFlipFlops <= base.Estimate().DFlipFlops {
		t.Error("estimate did not grow with FIFO depth")
	}
}

func TestRuleEngineEntityScales(t *testing.T) {
	// DFA form: more states cost more ROM LUTs and a wider state register.
	smallEnt := RuleEngineEntity(16, 16*512, 4)
	bigEnt := RuleEngineEntity(256, 256*512, 4)
	moreRulesEnt := RuleEngineEntity(16, 16*512, 16)
	small, big, moreRules := smallEnt.Estimate(), bigEnt.Estimate(), moreRulesEnt.Estimate()
	if big.FunctionGenerators <= small.FunctionGenerators {
		t.Errorf("transition ROM did not grow: %d -> %d FGs", small.FunctionGenerators, big.FunctionGenerators)
	}
	if big.DFlipFlops <= small.DFlipFlops {
		t.Errorf("state register did not widen: %d -> %d DFFs", small.DFlipFlops, big.DFlipFlops)
	}
	// More rules cost more counters regardless of form.
	if moreRules.DFlipFlops <= small.DFlipFlops {
		t.Error("per-rule counters did not grow with rule count")
	}
	// Lane form trades ROM for per-state registers.
	lanes := RuleEngineEntity(0, 40, 8)
	lr := lanes.Estimate()
	if lr.DFlipFlops == 0 || lr.FunctionGenerators == 0 {
		t.Errorf("lane-mode estimate empty: %+v", lr)
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1()
	for _, name := range []string{"CLck_gen", "Comm", "Inst_dec", "Out_gen", "SPI", "FIFO_Inject", "Total"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table1 output missing %q", name)
		}
	}
	if !strings.Contains(out, "2275") {
		t.Error("Table1 output missing the paper total 2275")
	}
}

// EstimatedTotal sums the model estimates across all entities.
func EstimatedTotal() Resources {
	var total Resources
	for _, e := range InjectorEntities() {
		total.Add(e.Estimate())
	}
	return total
}
