package rules

import (
	"math/rand"
	"reflect"
	"testing"
)

// byteCursor feeds the generators below from raw bytes (fuzzer input or a
// seeded rng), so one generator serves the fuzz targets and the fixed sweeps.
type byteCursor struct {
	data []byte
	pos  int
}

func (c *byteCursor) next() byte {
	if c.pos >= len(c.data) {
		c.pos++
		return byte(c.pos * 37) // deterministic tail when input runs dry
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

// fuzzMasks spans class widths from one symbol (full mask) through 32
// (0x0F0) to 256 (0x100: the D/C flag alone), so masked transitions name
// anywhere from one symbol to half the alphabet; the zero mask is the full
// wildcard step.
var fuzzMasks = []uint16{SymbolMask, 0x0FF, 0x17F, 0x1F3, 0x1F0, 0x0F0, 0x100, 0}

// buildFuzzRules shapes bytes into 1..4 rules. Roughly one rule in eight
// comes out invalid (gap out of range), exercising the error path.
func buildFuzzRules(c *byteCursor) []Rule {
	nRules := 1 + int(c.next()%4)
	rs := make([]Rule, 0, nRules)
	for i := 0; i < nRules; i++ {
		r := Rule{ID: i, Mode: ModeOn, Action: ActionCapture}
		nSteps := 1 + int(c.next()%4)
		for j := 0; j < nSteps; j++ {
			s := Step{
				Sym:  uint16(c.next()) | uint16(c.next()&1)<<8,
				Mask: fuzzMasks[int(c.next())%len(fuzzMasks)],
			}
			if j > 0 {
				// Mostly small gaps; occasionally unbounded or (invalid)
				// past MaxGap.
				switch g := int(c.next() % 16); {
				case g < 10:
					s.Gap = g % 4
				case g < 13:
					s.Gap = GapUnbounded
				case g < 15:
					s.Gap = g // 13..14: valid mid-range
				default:
					s.Gap = MaxGap + 3 // invalid
				}
			}
			r.Steps = append(r.Steps, s)
		}
		rs = append(rs, r)
	}
	return rs
}

// buildFuzzStream emits symbols biased toward the rules' step symbols so
// matches actually happen: a quarter of the draws splice in the leading steps
// of some rule, gaps filled up to one symbol past their bound, so multi-symbol
// prefixes complete (and just fail to) even when the set names hundreds of
// symbols.
func buildFuzzStream(c *byteCursor, rs []Rule, n int) []uint16 {
	var pool []uint16
	for _, r := range rs {
		for _, s := range r.Steps {
			pool = append(pool, s.Sym)
		}
	}
	random := func() uint16 { return uint16(c.next()) | uint16(c.next()&1)<<8 }
	stream := make([]uint16, 0, n+MaxSteps*(MaxGap+2))
	for len(stream) < n {
		b := c.next()
		switch {
		case b&3 == 0 && len(rs) > 0:
			r := &rs[int(c.next())%len(rs)]
			for _, s := range r.Steps[:1+int(c.next())%len(r.Steps)] {
				fill := 0
				if s.Gap == GapUnbounded {
					fill = int(c.next() % 6)
				} else if s.Gap > 0 {
					fill = int(c.next()) % (s.Gap + 2)
				}
				for ; fill > 0; fill-- {
					stream = append(stream, random())
				}
				stream = append(stream, s.Sym&SymbolMask)
			}
		case b&1 == 0 && len(pool) > 0:
			stream = append(stream, pool[int(b>>1)%len(pool)])
		default:
			stream = append(stream, random())
		}
	}
	return stream[:n]
}

// ruleShape is a rule-set generator together with what the compiler, left to
// itself, lowers its output to. The differential suites run every shape, so
// each exact engine executes behind each screen width without an option to
// force the pairing; TestCompileSelection pins the selection.
type ruleShape struct {
	name  string
	gen   func(c *byteCursor) []Rule
	mode  string // Stats().Mode
	words int    // shift-and state width in words; 0 = no screen compiled
}

// literalRules builds n capture rules of k full-mask steps. First symbols are
// distinct, so no prefix dedupes or subsumes another and a compiled screen
// occupies exactly n*min(k, prefixCap) positions.
func literalRules(c *byteCursor, n, k int) []Rule {
	rs := make([]Rule, n)
	base := uint16(c.next())
	for i := range rs {
		rs[i] = Rule{ID: i, Mode: ModeOn, Action: ActionCapture}
		sym := 0x100 | (base+uint16(i))&0xFF
		for j := 0; j < k; j++ {
			rs[i].Steps = append(rs[i].Steps, Step{Sym: sym, Mask: SymbolMask})
			sym = uint16(c.next()) | uint16(c.next()&1)<<8
		}
	}
	return rs
}

// blowBudget hangs a MaxGap-bounded step on rule 0. The DFA would have to
// remember which of the last MaxGap positions completed rule 0's steps so
// far — far more than dfaStateBudget subsets — so the compiler lands on
// lanes; the literal prefix in front of the gap is untouched.
func blowBudget(c *byteCursor, rs []Rule) []Rule {
	rs[0].Steps = append(rs[0].Steps, Step{
		Sym: uint16(c.next()) | uint16(c.next()&1)<<8, Mask: SymbolMask, Gap: MaxGap,
	})
	return rs
}

var ruleShapes = []ruleShape{
	{"dfa/none/one-symbol", func(c *byteCursor) []Rule {
		return literalRules(c, 1+int(c.next()%4), 1)
	}, "dfa", 0},
	{"dfa/none/starters", func(c *byteCursor) []Rule {
		// Every data symbol plus one control symbol can start a prefix:
		// 257 of 512, one past the half where the screen stops paying.
		rs := literalRules(c, 2, 2+int(c.next()%3))
		rs[0].Steps[0] = Step{Sym: 0x100, Mask: 0x100}
		rs[1].Steps[0].Sym &= 0x0FF
		return rs
	}, "dfa", 0},
	{"dfa/shift-and-1", func(c *byteCursor) []Rule {
		return literalRules(c, 1+int(c.next()%8), 2+int(c.next()%4))
	}, "dfa", 1},
	{"dfa/shift-and-2", func(c *byteCursor) []Rule {
		if c.next()&1 == 0 {
			return literalRules(c, 64, 2) // the benchmark set's geometry
		}
		// Three-symbol prefixes do not divide 64: one straddles the word
		// boundary and needs the carry.
		return literalRules(c, 22+int(c.next()%21), 3)
	}, "dfa", 2},
	{"dfa/shift-and-3", func(c *byteCursor) []Rule {
		if c.next()&1 == 0 {
			return literalRules(c, 48, 4)
		}
		return literalRules(c, 43+int(c.next()%22), 3)
	}, "dfa", 3},
	{"dfa/shift-and-4", func(c *byteCursor) []Rule {
		return literalRules(c, 64, 4+int(c.next()%3))
	}, "dfa", 4},
	{"lanes/none", func(c *byteCursor) []Rule {
		return blowBudget(c, literalRules(c, 1+int(c.next()%4), 1))
	}, "nfa-lanes", 0},
	{"lanes/shift-and-1", func(c *byteCursor) []Rule {
		return blowBudget(c, literalRules(c, 1+int(c.next()%4), 2+int(c.next()%2)))
	}, "nfa-lanes", 1},
	{"lanes/shift-and-4", func(c *byteCursor) []Rule {
		return blowBudget(c, literalRules(c, 64, 4))
	}, "nfa-lanes", 4},
}

// eachShape runs fn over n seeded draws of every shape.
func eachShape(t *testing.T, seed int64, n int, fn func(t *testing.T, sh ruleShape, c *byteCursor, rs []Rule)) {
	if testing.Short() {
		n = (n + 4) / 5
	}
	for _, sh := range ruleShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 2048)
			for i := 0; i < n; i++ {
				rng.Read(buf)
				c := &byteCursor{data: buf}
				fn(t, sh, c, sh.gen(c))
			}
		})
	}
}

// TestCompileSelection pins what the compiler picks: the exact engine is a
// DFA until the state budget blows, then lanes; the screen is shift-and at
// whatever width the deduplicated prefixes need, or absent when prefixes are
// one symbol long or their starters cover more than half the symbol space.
func TestCompileSelection(t *testing.T) {
	eachShape(t, 1024, 20, func(t *testing.T, sh ruleShape, _ *byteCursor, rs []Rule) {
		p := mustCompile(t, rs)
		if got := p.Stats().Mode; got != sh.mode {
			t.Fatalf("mode %q, want %q (stats %+v)\nrules: %+v", got, sh.mode, p.Stats(), rs)
		}
		pf := p.Prefilter()
		switch {
		case sh.words == 0 && pf != nil:
			t.Fatalf("compiled a screen where none pays: %+v\nrules: %+v", pf.prefixes, rs)
		case sh.words > 0 && pf == nil:
			t.Fatalf("no screen, want %d words\nrules: %+v", sh.words, rs)
		case sh.words > 0 && pf.words != sh.words:
			t.Fatalf("screen of %d words, want %d (%+v)", pf.words, sh.words, pf.prefixes)
		}
	})
}

// checkFuzzCase is the shared oracle for FuzzRuleCompile and the fixed
// 10k-case CI sweep. It derives a rule set and a symbol stream from raw
// bytes, compiles the set twice (DFA under a tight budget, so fallback is
// exercised too, and budget zero, which is always lanes), holds both
// compiles to the reference subset construction, runs both over the
// stream, and checks every fire mask against the naive reference matcher.
// A third program binds the set to the automaton compiled for a sibling
// set — the same steps, every other field different — as an engine's memo
// does, after first binding the sibling's own rules into the same program;
// it must fire and count exactly as the fresh compile does.
// The compiler must never panic: raw field values are taken from the bytes
// with only light shaping, so invalid rules (bad gaps, overlong vectors)
// reach Validate regularly and must come back as errors.
func checkFuzzCase(t *testing.T, data []byte) {
	c := &byteCursor{data: data}
	rs := buildFuzzRules(c)

	dfa, errD := compile(rs, 64)
	lanes, errL := compile(rs, 0)
	if (errD == nil) != (errL == nil) {
		t.Fatalf("compile disagreement: dfa err=%v, lanes err=%v", errD, errL)
	}
	if errD != nil {
		return // invalid rule set: rejected without panicking, done
	}
	if lanes.UsesDFA() {
		t.Fatal("budget 0 produced a DFA")
	}
	requireReferenceDFA(t, dfa, 64)
	requireReferenceDFA(t, lanes, 0)

	sib := make([]Rule, len(rs))
	for i, r := range rs {
		sib[i] = Rule{ID: r.ID + 1, Priority: -r.Priority, Mode: ModeAfterN, N: 2,
			Action: ActionDrop, DropCount: 1, Steps: r.Steps}
	}
	memo, err := compile(sib, 64)
	if err != nil {
		t.Fatalf("sibling set: %v", err)
	}
	var bound Program
	for _, set := range [][]Rule{sib, rs} {
		if err := bound.Bind(memo, set); err != nil {
			t.Fatalf("binding to the sibling's automaton: %v", err)
		}
	}
	if !reflect.DeepEqual(bound.Rules(), dfa.Rules()) {
		t.Fatalf("bound rules %+v, compiled %+v", bound.Rules(), dfa.Rules())
	}

	stream := buildFuzzStream(c, rs, 48)
	ed, el, eb := NewExecutor(dfa), NewExecutor(lanes), NewExecutor(&bound)
	for p, sym := range stream {
		fd, fl, fb := ed.Step(sym), el.Step(sym), eb.Step(sym)
		if fd != fl || fd != fb {
			t.Fatalf("pos %d: dfa fired %#x, lanes %#x, bound %#x (stats %+v)", p, fd, fl, fb, dfa.Stats())
		}
		if ref := refFires(rs, stream, p); fd != ref {
			t.Fatalf("pos %d: compiled fired %#x, reference %#x\nrules: %+v\nstream: %v",
				p, fd, ref, rs, stream[:p+1])
		}
	}
	for i := range rs {
		dm, df := ed.Counters(i)
		if bm, bf := eb.Counters(i); bm != dm || bf != df {
			t.Fatalf("rule %d: bound counted %d matches, %d fires; compiled %d, %d", i, bm, bf, dm, df)
		}
	}
}

// refFires is the reference matcher's fire mask at stream[p] (all rules
// ModeOn).
func refFires(rs []Rule, stream []uint16, p int) uint64 {
	var ref uint64
	for i := range rs {
		if MatchesAt(&rs[i], stream, p) {
			ref |= 1 << uint(i)
		}
	}
	return ref
}

// FuzzRuleCompile asserts the compiler never panics and that compiled
// execution (both DFA and lane fallback) agrees with the reference matcher.
// Run with: go test -fuzz=FuzzRuleCompile ./internal/rules
func FuzzRuleCompile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0x18, 1, 0xFF, 2, 0x19, 0, 0x00, 5})
	f.Add([]byte{3, 1, 0x0C, 0, 1, 1, 0x0F, 3, 12, 2, 0x40, 2, 15, 7, 7, 7})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 16; i++ {
		buf := make([]byte, 8+rng.Intn(56))
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(checkFuzzCase)
}

// TestRuleCompileEquivalence10k is the CI-mode form of the fuzz target: ten
// thousand seeded random cases through the same oracle, so every ordinary
// `go test` run re-proves DFA/lane/reference agreement without the fuzzing
// engine. Every rule shape then runs through the engine the compiler picks
// for it against the same reference.
func TestRuleCompileEquivalence10k(t *testing.T) {
	cases := 10_000
	if testing.Short() {
		cases = 1_000
	}
	rng := rand.New(rand.NewSource(20020623)) // the paper's venue date
	buf := make([]byte, 96)
	for i := 0; i < cases; i++ {
		rng.Read(buf)
		checkFuzzCase(t, buf)
		if t.Failed() {
			t.Fatalf("diverged on case %d", i)
		}
	}
	eachShape(t, 20020623, 25, func(t *testing.T, _ ruleShape, c *byteCursor, rs []Rule) {
		p := mustCompile(t, rs)
		stream := buildFuzzStream(c, rs, 256)
		e := NewExecutor(p)
		for pos, sym := range stream {
			if got, ref := e.Step(sym), refFires(rs, stream, pos); got != ref {
				t.Fatalf("pos %d: %s fired %#x, reference %#x\nrules: %+v\nstream: %v",
					pos, p.Stats().Mode, got, ref, rs, stream[:pos+1])
			}
		}
	})
}
