package rules

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// dfaStateBudget bounds subset construction: a 1024-state DFA over the
// 512-symbol alphabet is a 2 MiB transition table — the upper end of what a
// block-RAM transition ROM on the paper's FPGA class could hold.
const dfaStateBudget = 1024

// Options is empty: which matcher and which screen a rule set gets is decided
// by the compiler from the rule set alone (see Compile). The type remains
// because callers spell rules.Compile(rs, rules.Options{}).
type Options struct{}

// nfaState is one Thompson-style state. Each state has at most one
// consuming transition (fires when (sym^cmp)&mask == 0; mask 0 fires on any
// symbol), at most one wildcard advance (the bounded-gap chain), and an
// optional wildcard self-loop (the unanchored start and unbounded gaps).
type nfaState struct {
	cmp, mask uint16
	matchNext int32 // consuming transition target, -1 none
	anyNext   int32 // gap-chain advance target, -1 none
	selfAny   bool
	accept    int32 // rule index reaching acceptance at this state, -1 none
}

// laneProg is one rule's private NFA, executed as a 64-bit set of active
// states. Bit 0 is the start state and stays set forever (unanchored
// matching). steps is the copy of the rule's steps it was built from.
type laneProg struct {
	states []nfaState
	accept uint64 // bitmask of accepting local states
	steps  []Step
}

// automaton is what Compile builds from a rule set's steps alone: either a
// flat DFA transition table (table[state*512+sym] -> state, with a
// per-state accept bitmask) or, past the state budget, one NFA lane per
// rule, and the prefilter in front of either. It never changes after
// Compile, so every Program bound to it shares it.
type automaton struct {
	lanes []laneProg

	// Subset-construction result; dfaTable nil selects lane execution.
	dfaTable  []int32
	dfaAccept []uint64
	dfaStates int

	nfaStates int

	// starter holds bit s when symbol s satisfies some rule's first step:
	// exactly the symbols on which the matcher leaves its start
	// configuration, so a run of non-starters consumed in start changes
	// nothing but the symbol clock.
	starter [SymbolSpace / 64]uint64

	// prefilter is the compiled batch screen; nil when judged useless (see
	// compilePrefilter).
	prefilter *Prefilter
}

// Program is a compiled rule set: an automaton and the rules bound to it,
// whose per-rule fields (ID, priority, mode, N, action, drop count and
// corrupt vectors) the executor and the datapath read when a rule matches.
type Program struct {
	automaton
	rules []Rule
}

// ProgramStats summarizes the compiled form, for resource estimation
// (internal/synth) and diagnostics.
type ProgramStats struct {
	// Rules is the rule count; NFAStates the summed per-rule NFA sizes.
	Rules     int
	NFAStates int
	// DFAStates is zero in lane mode.
	DFAStates int
	// TableEntries is the transition storage: DFA states x 512, or the
	// summed lane state counts in lane mode.
	TableEntries int
	// Mode is "dfa" or "nfa-lanes".
	Mode string
}

// Compile validates and lowers a rule set: it builds the automaton from the
// rules' steps, then binds the rules to it. Rule order is preserved: rule i
// of the input is bit i of every Executor fire mask. The exact matcher is a
// DFA unless subset construction passes dfaStateBudget, then per-rule
// NFA lanes; a shift-and screen is compiled in front of either when
// compilePrefilter judges it pays. The program keeps none of rs's storage.
func Compile(rs []Rule, _ Options) (*Program, error) {
	return compile(rs, dfaStateBudget)
}

// compile is Compile with the DFA state budget exposed, so in-package tests
// can reach the lane fallback with small rule sets.
func compile(rs []Rule, budget int) (*Program, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("rules: empty rule set")
	}
	if len(rs) > MaxRules {
		return nil, fmt.Errorf("rules: %d rules, max %d", len(rs), MaxRules)
	}
	p := new(Program)
	for i := range rs {
		if err := rs[i].Validate(); err != nil {
			return nil, err
		}
		p.lanes = append(p.lanes, buildLane(&rs[i], int32(i)))
		p.nfaStates += len(p.lanes[i].states)
		stepToken(rs[i].Steps[0]).each(func(s uint16) { p.starter[s>>6] |= 1 << (s & 63) })
	}
	p.buildDFA(budget) // leaves dfaTable nil past the budget
	starters := 0
	for _, w := range p.starter {
		starters += bits.OnesCount64(w)
	}
	p.prefilter = compilePrefilter(rs, starters)
	p.bind(rs)
	return p, nil
}

// Bind makes p the program Compile(rs) would make, on src's automaton
// instead of a new one: rs must have src's steps, rule by rule and in
// order, and may differ from src's rules in every other field. A memo of
// automata keyed by steps re-arms a rule set whose vectors, actions or
// modes changed this way. p keeps none of rs's storage (see bind). rs may
// be p's own rules, and src may be p; no other rule in rs may share p's
// storage.
func (p *Program) Bind(src *Program, rs []Rule) error {
	if len(rs) != len(src.lanes) {
		return fmt.Errorf("rules: %d rules for an automaton of %d", len(rs), len(src.lanes))
	}
	for i := range rs {
		if !slices.Equal(rs[i].Steps, src.lanes[i].steps) {
			return fmt.Errorf("rules: rule %d's steps are not the automaton's", rs[i].ID)
		}
		if err := rs[i].Validate(); err != nil {
			return err
		}
	}
	p.automaton = src.automaton
	p.bind(rs)
	return nil
}

// bind sets p's rules to rs, the rules p's automaton was built from. Each
// rule's steps are its lane's copy, and its vectors are copied into the
// arrays p's rule at that index held, so binding a program again allocates
// only when the set grows or a vector outgrows its array.
func (p *Program) bind(rs []Rule) {
	if cap(p.rules) < len(rs) {
		grown := make([]Rule, len(rs))
		copy(grown, p.rules[:cap(p.rules)])
		p.rules = grown
	}
	p.rules = p.rules[:len(rs)]
	for i := range rs {
		r := &p.rules[i]
		data, mask := r.CorruptData[:0], r.CorruptMask[:0]
		*r = rs[i]
		steps := p.lanes[i].steps
		r.Steps = steps[:len(steps):len(steps)]
		r.CorruptData = append(data, rs[i].CorruptData...)
		r.CorruptMask = append(mask, rs[i].CorruptMask...)
	}
}

// buildLane lowers one rule to its private NFA. States are laid out start
// first, then per step: the gap chain (if bounded) followed by the post
// state, so every consuming transition targets the step's post state.
func buildLane(r *Rule, ruleIdx int32) laneProg {
	states := make([]nfaState, 0, r.nfaSize())
	add := func(s nfaState) int32 {
		states = append(states, s)
		return int32(len(states) - 1)
	}
	blank := nfaState{matchNext: -1, anyNext: -1, accept: -1}
	cur := add(func() nfaState { s := blank; s.selfAny = true; return s }()) // unanchored start
	for j, step := range r.Steps {
		// The post state this step's consuming transitions target.
		post := blank
		if j == len(r.Steps)-1 {
			post.accept = ruleIdx
		}
		consume := func(from int32, to int32) {
			states[from].cmp = step.Sym
			states[from].mask = step.Mask
			states[from].matchNext = to
		}
		switch {
		case step.Gap == GapUnbounded:
			states[cur].selfAny = true
			postIdx := add(post)
			consume(cur, postIdx)
			cur = postIdx
		case step.Gap > 0:
			chain := make([]int32, step.Gap)
			for k := range chain {
				chain[k] = add(blank)
			}
			postIdx := add(post)
			prev := cur
			for _, g := range chain {
				states[prev].anyNext = g
				prev = g
			}
			consume(cur, postIdx)
			for _, g := range chain {
				consume(g, postIdx)
			}
			cur = postIdx
		default:
			postIdx := add(post)
			consume(cur, postIdx)
			cur = postIdx
		}
	}
	lp := laneProg{states: states, steps: append([]Step(nil), r.Steps...)}
	for i, s := range states {
		if s.accept >= 0 {
			lp.accept |= 1 << uint(i)
		}
	}
	return lp
}

// globalNFA concatenates the lanes into one state array for subset
// construction, fixing up transition targets by each lane's offset.
func (a *automaton) globalNFA() (states []nfaState, starts []int32) {
	states, starts = make([]nfaState, 0, a.nfaStates), make([]int32, 0, len(a.lanes))
	for _, lane := range a.lanes {
		off := int32(len(states))
		starts = append(starts, off)
		for _, s := range lane.states {
			if s.matchNext >= 0 {
				s.matchNext += off
			}
			if s.anyNext >= 0 {
				s.anyNext += off
			}
			states = append(states, s)
		}
	}
	return states, starts
}

// dfaBuilder interns NFA-state sets: fixed-width bitsets over the global NFA
// (at most 64 words, for MaxRules*maxRuleStates states) laid back to back in
// one flat slice and looked up by their word bytes through a reused key
// buffer, so only a new DFA state allocates.
type dfaBuilder struct {
	nfa    []nfaState
	sets   []uint64 // state i is sets[i*words : (i+1)*words]
	ids    map[string]int32
	key    []byte
	accept []uint64
}

// intern returns the DFA state id for an NFA set, creating it if new.
func (b *dfaBuilder) intern(set []uint64) int32 {
	b.key = b.key[:0]
	for _, w := range set {
		b.key = binary.LittleEndian.AppendUint64(b.key, w)
	}
	if id, ok := b.ids[string(b.key)]; ok {
		return id
	}
	id := int32(len(b.accept))
	b.sets = append(b.sets, set...)
	b.ids[string(b.key)] = id
	var acc uint64
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			if r := b.nfa[wi<<6+bits.TrailingZeros64(w)].accept; r >= 0 {
				acc |= 1 << uint(r)
			}
		}
	}
	b.accept = append(b.accept, acc)
	return id
}

// symTarget adds target to one symbol's row entry; next is the symbol's
// previous pair (1-based, 0 ends the chain).
type symTarget struct{ target, next int32 }

// buildDFA runs subset construction under the state budget; past it the
// program is left in lane mode. A row is a symbol-independent "base" set
// (self-loops, gap advances, wildcard steps) plus, per symbol named by a
// masked transition (its class walked as submasks of the don't-care bits),
// that symbol's targets: (symbol, target) pairs chained per symbol and
// visited in ascending symbol order through a touched-symbol bitmap. So a
// row costs 512 writes plus one set lookup per named symbol, and states are
// numbered in discovery order: base first, then named symbols ascending.
func (a *automaton) buildDFA(budget int) {
	nfa, starts := a.globalNFA()
	words := (len(nfa) + 63) / 64
	b := &dfaBuilder{nfa: nfa, ids: make(map[string]int32)}
	base, cur := make([]uint64, words), make([]uint64, words)
	for _, s := range starts {
		base[s>>6] |= 1 << uint(s&63)
	}
	b.intern(base)

	var (
		head    [SymbolSpace]int32 // newest pair naming each symbol, 1-based
		touched [SymbolSpace / 64]uint64
		pairs   []symTarget
	)
	// The table grows row by row in its final backing array.
	table := make([]int32, 0, 4*SymbolSpace)
	for si := 0; si < len(b.accept); si++ {
		clear(base)
		pairs = pairs[:0]
		for wi, w := range b.sets[si*words : (si+1)*words] {
			for ; w != 0; w &= w - 1 {
				s := int32(wi<<6 + bits.TrailingZeros64(w))
				st := &nfa[s]
				if st.selfAny {
					base[s>>6] |= 1 << uint(s&63)
				}
				if t := st.anyNext; t >= 0 {
					base[t>>6] |= 1 << uint(t&63)
				}
				if t := st.matchNext; t >= 0 && st.mask == 0 {
					base[t>>6] |= 1 << uint(t&63)
				}
				if st.matchNext < 0 || st.mask == 0 {
					continue
				}
				free := ^st.mask & SymbolMask
				want := st.cmp & st.mask
				for sub := free; ; sub = (sub - 1) & free {
					sym := want | sub
					touched[sym>>6] |= 1 << (sym & 63)
					pairs = append(pairs, symTarget{target: st.matchNext, next: head[sym]})
					head[sym] = int32(len(pairs))
					if sub == 0 {
						break
					}
				}
			}
		}
		baseID := b.intern(base)
		start := len(table)
		for i := 0; i < SymbolSpace; i++ {
			table = append(table, baseID)
		}
		row := table[start:]
		for ti := range touched {
			for w := touched[ti]; w != 0; w &= w - 1 {
				sym := ti<<6 + bits.TrailingZeros64(w)
				copy(cur, base)
				for k := head[sym]; k != 0; k = pairs[k-1].next {
					t := pairs[k-1].target
					cur[t>>6] |= 1 << uint(t&63)
				}
				head[sym] = 0
				row[sym] = b.intern(cur)
			}
			touched[ti] = 0
		}
		if len(b.accept) > budget {
			return // blown budget: stay in lane mode
		}
	}
	a.dfaStates = len(b.accept)
	a.dfaTable = table
	a.dfaAccept = b.accept
}

// Rule returns rule i (compile order).
func (p *Program) Rule(i int) *Rule { return &p.rules[i] }

// Rules returns the compiled rules in order. The slice is shared; treat it
// as read-only.
func (p *Program) Rules() []Rule { return p.rules }

// UsesDFA reports whether subset construction fit the budget.
func (p *Program) UsesDFA() bool { return p.dfaTable != nil }

// Starter reports whether sym satisfies some rule's first step: whether
// consuming it in the start configuration can begin a match. The injector's
// batch plan folds the starter set into its wake table.
func (p *Program) Starter(sym uint16) bool {
	s := sym & SymbolMask
	return p.starter[s>>6]&(1<<(s&63)) != 0
}

// Prefilter returns the compiled batch screen, or nil when the compiler
// judged one useless for this rule set.
func (p *Program) Prefilter() *Prefilter { return p.prefilter }

// Stats summarizes the compiled form.
func (p *Program) Stats() ProgramStats {
	st := ProgramStats{Rules: len(p.rules), NFAStates: p.nfaStates}
	if p.UsesDFA() {
		st.DFAStates = p.dfaStates
		st.TableEntries = p.dfaStates * SymbolSpace
		st.Mode = "dfa"
	} else {
		st.TableEntries = p.nfaStates
		st.Mode = "nfa-lanes"
	}
	return st
}
