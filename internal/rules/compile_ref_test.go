package rules

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file keeps the sorted-list subset construction that the bitset builder
// in compile.go replaced, as a differential oracle: NFA sets are sorted,
// deduplicated []int32 lists interned under a byte-encoded string key, and
// per-symbol targets collect in a 512-slot scratch sorted by symbol. It is
// slow and allocates per lookup, but it is simple enough to trust, and the
// bitset builder must reproduce its tables exactly.

// refBuilder interns NFA-state sets and owns the per-symbol scratch. The
// per-DFA-state work is split into a symbol-independent "base" target set
// (self-loops, gap advances, wildcard steps) and per-symbol extras from
// masked consuming transitions, whose symbol classes are enumerated by
// walking the submasks of the don't-care bits; only symbols actually named
// by some transition get a non-base target, so a row costs 512 writes plus
// a handful of set constructions rather than 512 of them.
type refBuilder struct {
	nfa    []nfaState
	sets   [][]int32
	ids    map[string]int32
	accept []uint64

	specific [SymbolSpace][]int32
	touched  []uint16
}

// intern returns the DFA state id for a sorted, deduplicated NFA set,
// creating it if new.
func (b *refBuilder) intern(set []int32) int32 {
	key := refSetKey(set)
	if id, ok := b.ids[key]; ok {
		return id
	}
	id := int32(len(b.sets))
	b.sets = append(b.sets, append([]int32(nil), set...))
	b.ids[key] = id
	var acc uint64
	for _, s := range set {
		if r := b.nfa[s].accept; r >= 0 {
			acc |= 1 << uint(r)
		}
	}
	b.accept = append(b.accept, acc)
	return id
}

// refSetKey encodes a sorted set as map key bytes.
func refSetKey(set []int32) string {
	buf := make([]byte, 0, 2*len(set))
	for _, s := range set {
		buf = append(buf, byte(s), byte(s>>8))
	}
	return string(buf)
}

// refNormalize sorts and deduplicates a target list in place.
func refNormalize(set []int32) []int32 {
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	out := set[:0]
	for i, s := range set {
		if i == 0 || s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// referenceDFA runs the reference subset construction over p's lanes under
// the state budget. It returns the transition table, the per-state accept
// masks and the state count, or a nil table and zero states past the budget.
func referenceDFA(p *Program, budget int) (dfaTable []int32, dfaAccept []uint64, dfaStates int) {
	nfa, starts := p.globalNFA()
	b := &refBuilder{nfa: nfa, ids: make(map[string]int32)}
	b.intern(refNormalize(starts))

	table := make([]int32, 0, 4*SymbolSpace)
	for si := 0; si < len(b.sets); si++ {
		S := b.sets[si]
		base := make([]int32, 0, len(S)+4)
		for _, s := range S {
			st := &nfa[s]
			if st.selfAny {
				base = append(base, s)
			}
			if st.anyNext >= 0 {
				base = append(base, st.anyNext)
			}
			if st.matchNext < 0 {
				continue
			}
			if st.mask == 0 {
				base = append(base, st.matchNext)
				continue
			}
			// Enumerate the masked symbol class: fixed bits from
			// cmp&mask, free bits walked as submasks.
			free := ^st.mask & SymbolMask
			want := st.cmp & st.mask
			for sub := uint16(free); ; sub = (sub - 1) & uint16(free) {
				sym := want | sub
				if len(b.specific[sym]) == 0 {
					b.touched = append(b.touched, sym)
				}
				b.specific[sym] = append(b.specific[sym], st.matchNext)
				if sub == 0 {
					break
				}
			}
		}
		base = refNormalize(base)
		baseID := b.intern(base)
		start := len(table)
		for i := 0; i < SymbolSpace; i++ {
			table = append(table, baseID)
		}
		row := table[start:]
		sort.Slice(b.touched, func(i, j int) bool { return b.touched[i] < b.touched[j] })
		for _, sym := range b.touched {
			t := append(append([]int32(nil), base...), b.specific[sym]...)
			row[sym] = b.intern(refNormalize(t))
			b.specific[sym] = b.specific[sym][:0]
		}
		b.touched = b.touched[:0]
		if len(b.sets) > budget {
			return nil, nil, 0 // blown budget: stay in lane mode
		}
	}
	return table, b.accept, len(b.sets)
}

// requireReferenceDFA fails unless p, compiled under budget, carries exactly
// the automaton the reference builder derives from p's lanes under the same
// budget: the same table, accept masks and state count, and the same
// DFA-or-lanes decision.
func requireReferenceDFA(t *testing.T, p *Program, budget int) {
	t.Helper()
	table, accept, states := referenceDFA(p, budget)
	if p.UsesDFA() != (table != nil) || p.dfaStates != states {
		t.Fatalf("budget %d: UsesDFA %v with %d states, reference %v with %d\nrules: %+v",
			budget, p.UsesDFA(), p.dfaStates, table != nil, states, p.rules)
	}
	if !slices.Equal(p.dfaAccept, accept) {
		t.Fatalf("budget %d: accept masks differ from the reference\nrules: %+v", budget, p.rules)
	}
	if !slices.Equal(p.dfaTable, table) {
		i := 0
		for i < len(table) && p.dfaTable[i] == table[i] {
			i++
		}
		t.Fatalf("budget %d: table differs from the reference at state %d symbol %#x\nrules: %+v",
			budget, i/SymbolSpace, i%SymbolSpace, p.rules)
	}
}

// requireReferenceAround compiles rs at the default budget and, when that
// lands on a DFA of n states, again at n-1, n and n+1, so the budget check
// trips on the reference's row or not at all.
func requireReferenceAround(t *testing.T, rs []Rule) {
	t.Helper()
	p := mustCompile(t, rs)
	requireReferenceDFA(t, p, dfaStateBudget)
	if !p.UsesDFA() {
		return
	}
	for _, budget := range []int{p.dfaStates - 1, p.dfaStates, p.dfaStates + 1} {
		q, err := compile(rs, budget)
		if err != nil {
			t.Fatal(err)
		}
		requireReferenceDFA(t, q, budget)
	}
}

// benchPairRules builds n two-step toggle rules shaped like the benchmark's
// armed set: full-mask data symbols, the first byte in 0x90..0xFF, every
// pair distinct.
func benchPairRules(rng *rand.Rand, n int) []Rule {
	rs := make([]Rule, 0, n)
	used := make(map[[2]byte]bool, n)
	for len(rs) < n {
		pair := [2]byte{0x90 + byte(rng.Intn(0x70)), byte(rng.Intn(256))}
		if used[pair] {
			continue
		}
		used[pair] = true
		rs = append(rs, Rule{
			ID: len(rs) + 1, Mode: ModeOn, Action: ActionToggle,
			Steps: []Step{
				{Sym: 0x100 | uint16(pair[0]), Mask: SymbolMask},
				{Sym: 0x100 | uint16(pair[1]), Mask: SymbolMask},
			},
			CorruptData: []uint16{0, 0x01},
		})
	}
	return rs
}

// TestBuildDFAMatchesReference holds the bitset builder to the reference on
// every rule shape and on benchmark-shaped 64-pair sets, each at the default
// budget and at budgets straddling its state count.
func TestBuildDFAMatchesReference(t *testing.T) {
	eachShape(t, 30, 10, func(t *testing.T, _ ruleShape, _ *byteCursor, rs []Rule) {
		requireReferenceAround(t, rs)
	})
	for _, seed := range []int64{42, 7, 1, 2, 3} {
		requireReferenceAround(t, benchPairRules(rand.New(rand.NewSource(seed)), MaxRules))
	}
}

// TestCompileAllocs pins what a whole Compile allocates, exactly. A set
// lookup that finds an existing DFA state allocates nothing, so the builder's
// share moves only with the number of states.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, c := range []struct {
		name string
		rs   []Rule
		want float64
	}{
		{"64 two-step pairs", benchPairRules(rand.New(rand.NewSource(42)), MaxRules), 517},
		{"PAT C0C", []Rule{{ID: 1, Mode: ModeOn, Steps: []Step{{Sym: ctrlSym(0x0C), Mask: SymbolMask}}}}, 27},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := testing.AllocsPerRun(10, func() {
				if _, err := Compile(c.rs, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if got != c.want {
				t.Errorf("Compile allocates %v objects, want %v", got, c.want)
			}
		})
	}
}
