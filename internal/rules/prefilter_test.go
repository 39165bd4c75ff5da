package rules

import (
	"math/rand"
	"testing"
)

func pfRule(id int, steps ...Step) Rule {
	return Rule{ID: id, Mode: ModeOn, Action: ActionCapture, Steps: steps}
}

func mustCompile(t *testing.T, rs []Rule) *Program {
	t.Helper()
	p, err := Compile(rs, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// Prefix extraction stops at the first gapped step and caps at prefixCap.
func TestPrefixExtraction(t *testing.T) {
	cases := []struct {
		name  string
		steps []Step
		want  int // extracted prefix length
	}{
		{"single", []Step{{Sym: 0x41, Mask: SymbolMask}}, 1},
		{"contiguous pair", []Step{
			{Sym: 0x41, Mask: SymbolMask},
			{Sym: 0x42, Mask: SymbolMask},
		}, 2},
		{"gap cuts the prefix", []Step{
			{Sym: 0x41, Mask: SymbolMask},
			{Sym: 0x42, Mask: SymbolMask},
			{Sym: 0x43, Mask: SymbolMask, Gap: 2},
			{Sym: 0x44, Mask: SymbolMask},
		}, 2},
		{"unbounded gap cuts too", []Step{
			{Sym: 0x41, Mask: SymbolMask},
			{Sym: 0x42, Mask: SymbolMask, Gap: GapUnbounded},
		}, 1},
		{"capped at prefixCap", []Step{
			{Sym: 0x41, Mask: SymbolMask},
			{Sym: 0x42, Mask: SymbolMask},
			{Sym: 0x43, Mask: SymbolMask},
			{Sym: 0x44, Mask: SymbolMask},
			{Sym: 0x45, Mask: SymbolMask},
			{Sym: 0x46, Mask: SymbolMask},
		}, prefixCap},
	}
	for _, tc := range cases {
		r := pfRule(0, tc.steps...)
		if got := len(extractPrefix(&r)); got != tc.want {
			t.Errorf("%s: extracted prefix length %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Identical prefixes collapse, and a shorter prefix subsumes every longer
// prefix it leads: completions of the longer are completions of the shorter
// at the same position, so only the shorter needs positions.
func TestPrefixDedupeAndSubsumption(t *testing.T) {
	rs := []Rule{
		pfRule(0, Step{Sym: 0x41, Mask: SymbolMask}, Step{Sym: 0x42, Mask: SymbolMask}),
		pfRule(1, Step{Sym: 0x41, Mask: SymbolMask}, Step{Sym: 0x42, Mask: SymbolMask}), // duplicate
		pfRule(2, Step{Sym: 0x41, Mask: SymbolMask}, Step{Sym: 0x42, Mask: SymbolMask},
			Step{Sym: 0x43, Mask: SymbolMask}, Step{Sym: 0x44, Mask: SymbolMask}), // subsumed by rule 0
		pfRule(3, Step{Sym: 0x50, Mask: SymbolMask}, Step{Sym: 0x51, Mask: SymbolMask}), // distinct
	}
	pf := mustCompile(t, rs).Prefilter()
	if pf == nil {
		t.Fatal("two-symbol literal prefixes compiled without a screen")
	}
	if len(pf.prefixes) != 2 {
		t.Fatalf("deduplicated prefixes = %d, want 2 (%+v)", len(pf.prefixes), pf.prefixes)
	}
	if pf.maxLen != 2 {
		t.Fatalf("MaxLen = %d, want 2 after subsumption (%+v)", pf.maxLen, pf.prefixes)
	}
	// Same-symbol different-mask first steps are distinct classes, not dupes.
	rs2 := []Rule{
		pfRule(0, Step{Sym: 0x41, Mask: SymbolMask}, Step{Sym: 0x42, Mask: SymbolMask}),
		pfRule(1, Step{Sym: 0x41, Mask: 0x0FF}, Step{Sym: 0x42, Mask: SymbolMask}),
	}
	pf2 := mustCompile(t, rs2).Prefilter()
	if got := len(pf2.prefixes); got != 2 {
		t.Fatalf("distinct masked classes collapsed: prefixes = %d, want 2", got)
	}
	// Sym bits outside the mask are normalized away before comparing.
	rs3 := []Rule{
		pfRule(0, Step{Sym: 0x141, Mask: 0x0FF}, Step{Sym: 0x42, Mask: SymbolMask}),
		pfRule(1, Step{Sym: 0x041, Mask: 0x0FF}, Step{Sym: 0x42, Mask: SymbolMask}),
	}
	pf3 := mustCompile(t, rs3).Prefilter()
	if got := len(pf3.prefixes); got != 1 {
		t.Fatalf("mask-equivalent classes not collapsed: prefixes = %d, want 1", got)
	}
}

// The compiler declines a screen when it cannot help: single-symbol prefixes
// (skipping non-starters already covers them) or starter classes covering
// most of the symbol space.
func TestPrefilterAutoDeclines(t *testing.T) {
	wildcard := []Rule{pfRule(0,
		Step{Sym: 0, Mask: 0}, // matches every symbol: no usable literal prefix
		Step{Sym: 0x42, Mask: SymbolMask})}
	if pf := mustCompile(t, wildcard).Prefilter(); pf != nil {
		t.Fatalf("auto compiled a screen for a wildcard-first rule: %+v", pf.prefixes)
	}
	short := []Rule{pfRule(0, Step{Sym: 0x41, Mask: SymbolMask})}
	if pf := mustCompile(t, short).Prefilter(); pf != nil {
		t.Fatalf("auto compiled a screen for a one-symbol rule: %+v", pf.prefixes)
	}
	useful := []Rule{pfRule(0,
		Step{Sym: 0x41, Mask: SymbolMask},
		Step{Sym: 0x42, Mask: SymbolMask})}
	if pf := mustCompile(t, useful).Prefilter(); pf == nil {
		t.Fatal("auto declined a two-symbol literal prefix")
	}
}

// The starter set must contain every symbol that satisfies some rule's first
// step — the injector's wake table treats non-starters as skippable.
func TestPrefilterStarterCoversFirstSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, 64)
	screened := 0
	for caseN := 0; caseN < 1000; caseN++ {
		rng.Read(buf)
		c := &byteCursor{data: buf}
		rs := buildFuzzRules(c)
		p, err := Compile(rs, Options{})
		if err != nil {
			continue
		}
		if p.Prefilter() == nil {
			continue // declined; TestStarterSetExact covers every program
		}
		screened++
		for s := 0; s < SymbolSpace; s++ {
			if p.Starter(uint16(s)) {
				continue
			}
			for i := range rs {
				first := rs[i].Steps[0]
				if (uint16(s)^first.Sym)&first.Mask&SymbolMask == 0 {
					t.Fatalf("case %d: symbol %#03x not a starter but satisfies rule %d's first step", caseN, s, i)
				}
			}
		}
	}
	if screened < 100 {
		t.Fatalf("only %d of 1000 random sets compiled a screen; the check is vacuous", screened)
	}
}

// scanClean's three verdict shapes: a hit rewinds by MaxLen-1, a partial at
// the buffer end is held back, dead partials are cleaned through.
func TestScanCleanSplits(t *testing.T) {
	rs := []Rule{pfRule(0,
		Step{Sym: 0x41, Mask: SymbolMask},
		Step{Sym: 0x42, Mask: SymbolMask})}
	p := mustCompile(t, rs)
	cases := []struct {
		name        string
		syms        []uint16
		clean, hold int
	}{
		{"all quiet", []uint16{1, 2, 3, 4}, 4, 0},
		{"hit mid-run", []uint16{1, 2, 0x41, 0x42, 7}, 2, 2},
		{"hit at start", []uint16{0x41, 0x42, 7}, 0, 2},
		{"partial at end", []uint16{1, 2, 0x41}, 2, 1},
		{"dead partial cleaned", []uint16{1, 0x41, 9, 2}, 4, 0},
		// The first 0x41's partial died when the second arrived; the hit
		// rewind only needs MaxLen symbols, so position 0 stays clean.
		{"restart inside partial", []uint16{0x41, 0x41, 0x42}, 1, 2},
	}
	for _, tc := range cases {
		clean, hold := p.scanClean(tc.syms)
		if clean != tc.clean || hold != tc.hold {
			t.Errorf("%s: scanClean = (%d,%d), want (%d,%d)",
				tc.name, clean, hold, tc.clean, tc.hold)
		}
	}
}

// A prefix straddling a StepBatch call boundary must still fire: the clean
// split holds back live partials at the buffer end.
func TestStepBatchPrefixAcrossChunks(t *testing.T) {
	rs := []Rule{pfRule(0,
		Step{Sym: 0x41, Mask: SymbolMask},
		Step{Sym: 0x42, Mask: SymbolMask},
		Step{Sym: 0x43, Mask: SymbolMask})}
	p := mustCompile(t, rs)
	for cut := 1; cut < 3; cut++ {
		e := NewExecutor(p)
		stream := []uint16{7, 7, 0x41, 0x42, 0x43, 7}
		boundary := 2 + cut // split inside the prefix
		var fired uint64
		fired |= e.StepBatch(stream[:boundary])
		fired |= e.StepBatch(stream[boundary:])
		if fired != 1 {
			t.Fatalf("cut %d: fired %#x, want rule 0", cut, fired)
		}
		if m, _ := e.Counters(0); m != 1 {
			t.Fatalf("cut %d: matches %d, want 1", cut, m)
		}
	}
}
