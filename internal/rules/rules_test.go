package rules

import (
	"testing"
)

// dataSym mirrors phy.DataChar for test readability: bit 8 is the D/C flag.
func dataSym(b byte) uint16 { return 0x100 | uint16(b) }

// ctrlSym mirrors phy.ControlChar.
func ctrlSym(b byte) uint16 { return uint16(b) }

// seqRule builds a ModeOn capture rule matching the given full-mask data
// bytes in sequence.
func seqRule(id int, bs ...byte) Rule {
	r := Rule{ID: id, Mode: ModeOn, Action: ActionCapture}
	for _, b := range bs {
		r.Steps = append(r.Steps, Step{Sym: dataSym(b), Mask: SymbolMask})
	}
	return r
}

// run feeds stream to a fresh executor and returns the fire masks per
// position.
func run(t *testing.T, p *Program, stream []uint16) []uint64 {
	t.Helper()
	e := NewExecutor(p)
	out := make([]uint64, len(stream))
	for i, s := range stream {
		out[i] = e.Step(s)
	}
	return out
}

// compileBoth compiles the set as a DFA and, with a zero state budget, as
// lanes.
func compileBoth(t *testing.T, rs []Rule) (*Program, *Program) {
	t.Helper()
	dfa, err := Compile(rs, Options{})
	if err != nil {
		t.Fatalf("compile dfa: %v", err)
	}
	if !dfa.UsesDFA() {
		t.Fatalf("default compile fell back to lanes: %+v", dfa.Stats())
	}
	lanes, err := compile(rs, 0)
	if err != nil {
		t.Fatalf("compile lanes: %v", err)
	}
	if lanes.UsesDFA() {
		t.Fatal("budget 0 produced a DFA")
	}
	return dfa, lanes
}

func TestSingleRuleSequence(t *testing.T) {
	rs := []Rule{seqRule(1, 0x18, 0x19)}
	stream := []uint16{dataSym(0x18), dataSym(0x18), dataSym(0x19), dataSym(0x19), dataSym(0x18)}
	want := []uint64{0, 0, 1, 0, 0}
	for _, p := range func() []*Program { a, b := compileBoth(t, rs); return []*Program{a, b} }() {
		got := run(t, p, stream)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s pos %d: fired %#x, want %#x", p.Stats().Mode, i, got[i], want[i])
			}
		}
	}
}

func TestMaskAndControlSymbols(t *testing.T) {
	// Match the GAP control symbol regardless of data bits 4..7.
	rs := []Rule{{ID: 1, Mode: ModeOn, Action: ActionCapture,
		Steps: []Step{{Sym: ctrlSym(0x0C), Mask: 0x10F}}}}
	dfa, lanes := compileBoth(t, rs)
	stream := []uint16{ctrlSym(0x0C), ctrlSym(0x7C), dataSym(0x0C), ctrlSym(0x0D)}
	want := []uint64{1, 1, 0, 0} // D/C flag and low nibble compared, bits 4..7 not
	for _, p := range []*Program{dfa, lanes} {
		got := run(t, p, stream)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s pos %d: fired %#x, want %#x", p.Stats().Mode, i, got[i], want[i])
			}
		}
	}
}

func TestBoundedAndUnboundedGaps(t *testing.T) {
	rs := []Rule{
		{ID: 1, Mode: ModeOn, Action: ActionCapture, Steps: []Step{
			{Sym: dataSym(0xA0), Mask: SymbolMask},
			{Sym: dataSym(0xB0), Mask: SymbolMask, Gap: 2},
		}},
		{ID: 2, Mode: ModeOn, Action: ActionCapture, Steps: []Step{
			{Sym: dataSym(0xA0), Mask: SymbolMask},
			{Sym: dataSym(0xC0), Mask: SymbolMask, Gap: GapUnbounded},
		}},
	}
	dfa, lanes := compileBoth(t, rs)
	stream := []uint16{
		dataSym(0xA0), dataSym(0x01), dataSym(0x02), dataSym(0xB0), // gap 2: fires
		dataSym(0x03), dataSym(0x04), dataSym(0x05), dataSym(0xC0), // unbounded: fires
		dataSym(0xB0), // gap 2 exceeded (5 chars since 0xA0): silent
	}
	want := []uint64{0, 0, 0, 1, 0, 0, 0, 2, 0}
	for _, p := range []*Program{dfa, lanes} {
		got := run(t, p, stream)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s pos %d: fired %#x, want %#x", p.Stats().Mode, i, got[i], want[i])
			}
		}
	}
}

func TestModeGating(t *testing.T) {
	mk := func(m Mode, n uint64) []Rule {
		r := seqRule(1, 0x42)
		r.Mode = m
		r.N = n
		return []Rule{r}
	}
	stream := []uint16{dataSym(0x42), dataSym(0x42), dataSym(0x42), dataSym(0x42)}
	cases := []struct {
		name string
		rs   []Rule
		want []uint64
	}{
		{"off", mk(ModeOff, 0), []uint64{0, 0, 0, 0}},
		{"on", mk(ModeOn, 0), []uint64{1, 1, 1, 1}},
		{"once", mk(ModeOnce, 0), []uint64{1, 0, 0, 0}},
		{"after2", mk(ModeAfterN, 2), []uint64{0, 0, 1, 1}},
		{"window2", mk(ModeWindow, 2), []uint64{1, 1, 0, 0}},
	}
	for _, c := range cases {
		p, err := Compile(c.rs, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		e := NewExecutor(p)
		for i, s := range stream {
			if got := e.Step(s); got != c.want[i] {
				t.Errorf("%s pos %d: fired %#x, want %#x", c.name, i, got, c.want[i])
			}
		}
		if m, _ := e.Counters(0); m != 4 {
			t.Errorf("%s: matches=%d, want 4 (gating must not hide matches)", c.name, m)
		}
	}
}

func TestResetRearms(t *testing.T) {
	r := seqRule(1, 0x42)
	r.Mode = ModeOnce
	p, err := Compile([]Rule{r}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(p)
	if e.Step(dataSym(0x42)) != 1 || e.Step(dataSym(0x42)) != 0 {
		t.Fatal("once gating broken")
	}
	e.Reset()
	if e.Step(dataSym(0x42)) != 1 {
		t.Error("Reset did not re-arm once mode")
	}
	if m, f := e.Counters(0); m != 1 || f != 1 {
		t.Errorf("Reset did not clear counters: %d/%d", m, f)
	}
}

func TestBudgetFallbackToLanes(t *testing.T) {
	// 16 distinct 6-step patterns comfortably exceed a 4-state budget.
	var rs []Rule
	for i := 0; i < 16; i++ {
		rs = append(rs, seqRule(i, byte(i), byte(i+1), byte(i+2), byte(i+3), byte(i+4), byte(i+5)))
	}
	p, err := compile(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.UsesDFA() {
		t.Fatal("4-state budget should force lane mode")
	}
	if st := p.Stats(); st.Mode != "nfa-lanes" || st.NFAStates == 0 {
		t.Errorf("stats = %+v", st)
	}
	// Lanes still match correctly.
	e := NewExecutor(p)
	var fired uint64
	for _, b := range []byte{3, 4, 5, 6, 7, 8} {
		fired = e.Step(dataSym(b))
	}
	if fired != 1<<3 {
		t.Errorf("fired %#x, want rule 3 only", fired)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Rule{
		{ID: 1, Action: ActionCapture},                                                               // no steps
		{ID: 2, Action: ActionCapture, Steps: []Step{{Gap: 5}}},                                      // gap on first step
		{ID: 3, Action: ActionCapture, Steps: []Step{{Sym: 0x200}}},                                  // symbol out of space
		{ID: 4, Action: ActionCapture, Steps: []Step{{}, {Gap: MaxGap + 1}}},                         // gap too large
		{ID: 5, Action: ActionToggle, Steps: []Step{{}}},                                             // toggle without vector
		{ID: 6, Action: ActionReplace, Steps: []Step{{}}, CorruptData: []uint16{1}},                  // replace without mask
		{ID: 7, Action: ActionDrop, Steps: []Step{{}}},                                               // drop without count
		{ID: 8, Action: ActionCapture, Steps: make([]Step, MaxSteps+1)},                              // too many steps
		{ID: 9, Action: Action(99), Steps: []Step{{}}},                                               // unknown action
		{ID: 10, Mode: Mode(99), Action: ActionCapture, Steps: []Step{{}}},                           // unknown mode
		{ID: 11, Action: ActionToggle, Steps: []Step{{}}, CorruptData: make([]uint16, MaxCorrupt+1)}, // vector too long
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rule %d: Validate accepted invalid rule", r.ID)
		}
		if _, err := Compile([]Rule{r}, Options{}); err == nil {
			t.Errorf("rule %d: Compile accepted invalid rule", r.ID)
		}
	}
	if _, err := Compile(nil, Options{}); err == nil {
		t.Error("Compile accepted an empty set")
	}
	if _, err := Compile(make([]Rule, MaxRules+1), Options{}); err == nil {
		t.Error("Compile accepted more than MaxRules rules")
	}
}

func TestReferenceMatcherBasics(t *testing.T) {
	r := Rule{ID: 1, Mode: ModeOn, Action: ActionCapture, Steps: []Step{
		{Sym: dataSym(0x10), Mask: SymbolMask},
		{Sym: dataSym(0x20), Mask: SymbolMask, Gap: 1},
	}}
	stream := []uint16{dataSym(0x10), dataSym(0x99), dataSym(0x20)}
	if !MatchesAt(&r, stream, 2) {
		t.Error("gap-1 match not found by reference")
	}
	if MatchesAt(&r, stream, 1) || MatchesAt(&r, stream, 5) {
		t.Error("reference matched where it must not")
	}
}

func TestStepZeroAlloc(t *testing.T) {
	rs := []Rule{seqRule(1, 1, 2, 3), seqRule(2, 4, 5, 6)}
	dfa, lanes := compileBoth(t, rs)
	for _, p := range []*Program{dfa, lanes} {
		e := NewExecutor(p)
		allocs := testing.AllocsPerRun(100, func() {
			for b := byte(0); b < 32; b++ {
				e.Step(dataSym(b))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Step allocates (%.1f allocs/run)", p.Stats().Mode, allocs)
		}
	}
}

// MatchesAt is the naive per-rule reference matcher: it reports whether the
// rule's step sequence matches some substring of stream whose final step
// consumes stream[p]. It is the executable specification the compiled
// automata are fuzz-checked against; it allocates and backtracks freely and
// must never be used on the hot path.
func MatchesAt(r *Rule, stream []uint16, p int) bool {
	if p < 0 || p >= len(stream) {
		return false
	}
	return refMatch(r.Steps, stream, p)
}

// refMatch checks steps against stream ending at p, recursing backward
// through the gap alternatives.
func refMatch(steps []Step, stream []uint16, p int) bool {
	j := len(steps) - 1
	s := steps[j]
	if p < 0 || (stream[p]&SymbolMask^s.Sym)&s.Mask != 0 {
		return false
	}
	if j == 0 {
		return true
	}
	g := s.Gap
	if g == GapUnbounded || g > p {
		g = p
	}
	for k := 0; k <= g; k++ {
		if refMatch(steps[:j], stream, p-1-k) {
			return true
		}
	}
	return false
}
