package rules

// Multi-pattern prefilter: a cheap screen compiled from every rule's literal
// prefix, run over whole batch runs so the exact DFA/lane executor wakes only
// around positions where some rule could actually be completing its opening
// symbols. The idea follows the approximate-NFA DPI literature: the screen is
// false-positive-only — it may wake the exact engine spuriously, but a stream
// position it clears provably cannot complete any rule's registered prefix,
// and therefore cannot be inside the prefix span of any accepting run.
//
// The engine is multi-word shift-and: every deduplicated prefix gets a
// contiguous run of bit positions; a per-symbol row table B[s] carries class
// tokens natively (no wildcard expansion), and one masked shift per symbol
// advances all partials at once. At most MaxRules x prefixCap = 256
// positions, so the state is at most four words.
//
// Soundness notes the executor relies on (see Executor.StepBatch and the
// injector's planScan):
//
//   - A rule's registered prefix is its leading run of Gap==0 steps, capped
//     at prefixCap (Validate rejects a gap before the first step, so every
//     rule registers at least one token). An accepting run must consume its
//     rule's full step sequence, and in particular the registered prefix
//     contiguously — so every accept position is preceded by a prefix
//     completion the screen reports.
//   - Dedupe keeps a prefix P and drops Q only when P's tokens are exactly
//     Q's leading tokens, so every completion of Q completes P at the same
//     position: hits are preserved, only duplicates go.
//   - On a hit ending at position p, rewinding to p-MaxLen()+1 covers every
//     prefix completion at or before p; positions cleared earlier hold no
//     viable partial (dead partials never accept).

// prefixCap bounds how many leading concrete symbols of a rule are compiled
// into the prefilter.
const prefixCap = 4

// pfMaxWords is the shift-and state width: MaxRules*prefixCap bit positions.
const pfMaxWords = MaxRules * prefixCap / 64

// prefixToken is one prefix symbol class: matches sym when (sym^cmp)&mask==0.
// cmp is stored pre-masked so token equality is class equality.
type prefixToken struct {
	cmp, mask uint16
}

// each calls fn on every symbol of the token's class, walking the submasks
// of its don't-care bits rather than testing all 512 symbols.
func (t prefixToken) each(fn func(sym uint16)) {
	free := ^t.mask & SymbolMask
	for sub := free; ; sub = (sub - 1) & free {
		fn(t.cmp | sub)
		if sub == 0 {
			return
		}
	}
}

// Prefilter is the compiled screen. Immutable after compile and shared
// across executor clones, like the Program that owns it.
type Prefilter struct {
	prefixes [][]prefixToken // deduplicated
	maxLen   int

	// shift-and tables.
	words int
	rows  []uint64 // SymbolSpace x words, row-major by symbol
	ini   [pfMaxWords]uint64
	hitm  [pfMaxWords]uint64
	depth []uint8 // bit position -> symbols consumed (1-based)
}

// extractPrefix returns a rule's literal prefix: the first step followed by
// subsequent steps while their Gap is zero, capped at prefixCap.
func extractPrefix(r *Rule) []prefixToken {
	toks := make([]prefixToken, 0, prefixCap)
	for j, st := range r.Steps {
		if j > 0 && st.Gap != 0 {
			break
		}
		toks = append(toks, stepToken(st))
		if len(toks) == prefixCap {
			break
		}
	}
	return toks
}

// stepToken is a step's symbol class as a prefix token.
func stepToken(st Step) prefixToken {
	mask := st.Mask & SymbolMask
	return prefixToken{cmp: st.Sym & mask, mask: mask}
}

// prefixTrie deduplicates prefixes by exact token class, with leading-prefix
// subsumption: inserting past a terminal node is a no-op (the shorter prefix
// already covers every completion), and marking a node terminal prunes the
// longer prefixes beneath it.
type prefixTrie struct {
	nodes []trieNode
}

type trieNode struct {
	tok      prefixToken
	children []int32
	terminal bool
}

func newPrefixTrie() *prefixTrie {
	return &prefixTrie{nodes: make([]trieNode, 1)} // node 0 is the root
}

func (t *prefixTrie) insert(toks []prefixToken) {
	cur := int32(0)
	for _, tok := range toks {
		if t.nodes[cur].terminal {
			return // subsumed by a shorter prefix already kept
		}
		next := int32(-1)
		for _, c := range t.nodes[cur].children {
			if t.nodes[c].tok == tok {
				next = c
				break
			}
		}
		if next < 0 {
			next = int32(len(t.nodes))
			t.nodes = append(t.nodes, trieNode{tok: tok})
			t.nodes[cur].children = append(t.nodes[cur].children, next)
		}
		cur = next
	}
	t.nodes[cur].terminal = true
	t.nodes[cur].children = nil // prune subsumed longer prefixes
}

// collect returns the kept prefixes, root-to-terminal, insertion-ordered
// within each subtree.
func (t *prefixTrie) collect() [][]prefixToken {
	var out [][]prefixToken
	var path []prefixToken
	var walk func(n int32)
	walk = func(n int32) {
		node := &t.nodes[n]
		if n != 0 {
			path = append(path, node.tok)
		}
		if node.terminal {
			out = append(out, append([]prefixToken(nil), path...))
		} else {
			for _, c := range node.children {
				walk(c)
			}
		}
		if n != 0 {
			path = path[:len(path)-1]
		}
	}
	walk(0)
	return out
}

// compilePrefilter builds the screen for a validated rule set whose starter
// set holds starters symbols, or returns nil when a screen would be useless:
// starters covering most of the symbol space, or no prefix longer than one
// symbol — skipping non-starters (Program.Starter) already handles those.
func compilePrefilter(rs []Rule, starters int) *Prefilter {
	t := newPrefixTrie()
	for i := range rs {
		t.insert(extractPrefix(&rs[i]))
	}
	pf := &Prefilter{prefixes: t.collect()}
	for _, p := range pf.prefixes {
		if len(p) > pf.maxLen {
			pf.maxLen = len(p)
		}
	}
	if pf.maxLen < 2 || 2*starters > SymbolSpace {
		return nil
	}
	pf.buildShiftAnd()
	return pf
}

// buildShiftAnd lays the deduplicated prefixes into contiguous bit positions.
// Prefix boundaries need no masking: a bit shifted past a prefix's last
// position lands on the next prefix's first position, which the per-step
// initial-position injection sets anyway.
func (pf *Prefilter) buildShiftAnd() {
	total := 0
	for _, p := range pf.prefixes {
		total += len(p)
	}
	pf.words = (total + 63) / 64
	pf.rows = make([]uint64, SymbolSpace*pf.words)
	pf.depth = make([]uint8, pf.words*64)
	pos := 0
	for _, p := range pf.prefixes {
		pf.ini[pos>>6] |= 1 << uint(pos&63)
		for j, tok := range p {
			b := pos + j
			pf.depth[b] = uint8(j + 1)
			tok.each(func(s uint16) { pf.rows[int(s)*pf.words+(b>>6)] |= 1 << uint(b&63) })
		}
		last := pos + len(p) - 1
		pf.hitm[last>>6] |= 1 << uint(last&63)
		pos += len(p)
	}
}

// MaxLen is the longest registered prefix: the hit-rewind and buffer-tail
// holdback distance.
func (pf *Prefilter) MaxLen() int { return pf.maxLen }

// Words is the shift-and state width in 64-bit words.
func (pf *Prefilter) Words() int { return pf.words }
