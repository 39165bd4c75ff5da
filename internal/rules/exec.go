package rules

import "math/bits"

// Executor runs a compiled Program over a symbol stream, one 9-bit symbol
// per Step call, with zero allocations in the hot path. It also owns the
// per-rule trigger state (match/fire counters, once latches, the armed
// window) so that re-arming is a Reset away, like reloading the register
// file of the single-pattern engine.
type Executor struct {
	p *Program

	dfa   int32
	lanes []uint64 // per-rule active-state bitsets (lane mode)

	symbols   uint64 // symbols consumed since Reset
	onceFired uint64
	counts    []ruleCounts
}

// ruleCounts is one rule's match and (mode-gated) fire counters.
type ruleCounts struct{ matches, fires uint64 }

// NewExecutor returns an armed executor.
func NewExecutor(p *Program) *Executor {
	e := new(Executor)
	e.Load(p)
	return e
}

// Load arms e for p, as NewExecutor(p) would, refilling e's own arrays: an
// executor reloaded with a program no larger than one it ran before
// allocates nothing.
func (e *Executor) Load(p *Program) {
	n := len(p.rules)
	e.p = p
	e.counts, e.lanes = resize(e.counts, n), e.lanes[:0]
	if !p.UsesDFA() {
		e.lanes = resize(e.lanes, n)
	}
	e.Reset()
}

// resize returns s with length n, reusing its array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// InStart reports whether the automaton is in its start configuration, i.e.
// no partial match is in flight. A symbol outside the program's starter set
// consumed here leaves the executor unchanged except for the symbol clock.
func (e *Executor) InStart() bool {
	if e.p.dfaTable != nil {
		return e.dfa == 0
	}
	for _, set := range e.lanes {
		if set != 1 {
			return false
		}
	}
	return true
}

// SkipQuiet advances the symbol clock over n symbols without touching
// automaton state. Only valid when InStart() holds and no skipped symbol is
// a starter (Program.Starter); callers own that proof.
func (e *Executor) SkipQuiet(n int) { e.symbols += uint64(n) }

// StepBatch consumes a run of symbols and returns the OR of the fire masks
// the per-symbol Step calls would have produced. While the automaton sits in
// its start configuration the program's prefilter screens the run: spans it
// proves unable to complete any rule's prefix are consumed in bulk, and the
// exact per-symbol path wakes only around prefilter hits (rewound by the
// maximum prefix length) and held-back partials at the run's end. Without a
// prefilter, runs of non-starters are consumed in bulk instead; either way
// the per-symbol path stays engaged until the automaton returns to start.
func (e *Executor) StepBatch(syms []uint16) uint64 {
	var fired uint64
	i, n := 0, len(syms)
	p := e.p
	for i < n {
		if e.InStart() {
			if p.prefilter != nil {
				clean, hold := p.scanClean(syms[i:])
				if clean > 0 {
					e.symbols += uint64(clean)
					i += clean
				}
				for end := i + hold; i < end; i++ {
					fired |= e.Step(syms[i])
				}
				continue
			}
			j := i
			for j < n && !p.Starter(syms[j]) {
				j++
			}
			if j > i {
				e.symbols += uint64(j - i)
				i = j
				continue
			}
		}
		fired |= e.Step(syms[i])
		i++
	}
	return fired
}

// Program returns the compiled rule set.
func (e *Executor) Program() *Program { return e.p }

// Reset re-arms the executor: automaton state, once latches, the window
// clock, and the per-rule counters all return to their power-on state.
func (e *Executor) Reset() {
	e.dfa = 0
	for i := range e.lanes {
		e.lanes[i] = 1 // the always-active unanchored start
	}
	e.symbols = 0
	e.onceFired = 0
	clear(e.counts)
}

// Step consumes one symbol and returns the bitmask of rules firing on it
// (bit i = rule i in compile order), after mode gating. Match counters
// advance even when the mode gates the fire.
func (e *Executor) Step(sym uint16) uint64 {
	sym &= SymbolMask
	e.symbols++
	var matched uint64
	if e.p.dfaTable != nil {
		e.dfa = e.p.dfaTable[int(e.dfa)*SymbolSpace+int(sym)]
		matched = e.p.dfaAccept[e.dfa]
	} else {
		for r := range e.p.lanes {
			lane := &e.p.lanes[r]
			var next uint64 = 1
			for set := e.lanes[r]; set != 0; set &= set - 1 {
				i := bits.TrailingZeros64(set)
				st := &lane.states[i]
				if st.selfAny {
					next |= 1 << uint(i)
				}
				if st.anyNext >= 0 {
					next |= 1 << uint(st.anyNext)
				}
				if st.matchNext >= 0 && (sym^st.cmp)&st.mask == 0 {
					next |= 1 << uint(st.matchNext)
				}
			}
			e.lanes[r] = next
			if next&lane.accept != 0 {
				matched |= 1 << uint(r)
			}
		}
	}
	if matched == 0 {
		return 0
	}
	var fired uint64
	for set := matched; set != 0; set &= set - 1 {
		i := bits.TrailingZeros64(set)
		c := &e.counts[i]
		c.matches++
		r := &e.p.rules[i]
		fire := false
		switch r.Mode {
		case ModeOn:
			fire = true
		case ModeOnce:
			if e.onceFired&(1<<uint(i)) == 0 {
				fire = true
				e.onceFired |= 1 << uint(i)
			}
		case ModeAfterN:
			fire = c.matches > r.N
		case ModeWindow:
			fire = e.symbols <= r.N
		}
		if fire {
			c.fires++
			fired |= 1 << uint(i)
		}
	}
	return fired
}

// Counters reports rule i's cumulative matches and (mode-gated) fires since
// the last Reset.
func (e *Executor) Counters(i int) (matches, fires uint64) {
	return e.counts[i].matches, e.counts[i].fires
}

// Symbols reports how many symbols the executor has consumed since Reset.
func (e *Executor) Symbols() uint64 { return e.symbols }
