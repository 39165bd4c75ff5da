package rules

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomizeModes redraws every rule's trigger mode: mode gating reads the
// symbol clock, so bulk skipping must keep it exact.
func randomizeModes(c *byteCursor, rs []Rule) {
	for i := range rs {
		switch c.next() % 4 {
		case 0:
			rs[i].Mode = ModeOn
		case 1:
			rs[i].Mode = ModeOnce
		case 2:
			rs[i].Mode = ModeAfterN
			rs[i].N = uint64(c.next() % 3)
		case 3:
			rs[i].Mode = ModeWindow
			rs[i].N = uint64(c.next() % 64)
		}
	}
}

// checkStepBatch runs StepBatch over random chunkings of a stream against a
// fresh per-symbol executor of the same program. Every chunk's cumulative
// fire mask, and the final match/fire counters and symbol clock, must agree.
func checkStepBatch(t *testing.T, c *byteCursor, p *Program, length int) {
	rs := p.Rules()
	stream := buildFuzzStream(c, rs, length)
	ref := NewExecutor(p)
	batch := NewExecutor(p)
	pos := 0
	for pos < len(stream) {
		n := 1 + int(c.next())%24
		if pos+n > len(stream) {
			n = len(stream) - pos
		}
		chunk := stream[pos : pos+n]
		var want uint64
		for _, sym := range chunk {
			want |= ref.Step(sym)
		}
		if got := batch.StepBatch(chunk); got != want {
			t.Fatalf("chunk [%d:%d): StepBatch fired %#x, per-symbol %#x (%s)\nrules: %+v\nstream: %v",
				pos, pos+n, got, want, p.Stats().Mode, rs, stream[:pos+n])
		}
		pos += n
	}
	if ref.Symbols() != batch.Symbols() {
		t.Fatalf("symbol clock diverged: per-symbol %d, batch %d", ref.Symbols(), batch.Symbols())
	}
	for i := range rs {
		rm, rf := ref.Counters(i)
		bm, bf := batch.Counters(i)
		if rm != bm || rf != bf {
			t.Fatalf("rule %d counters diverged: per-symbol (%d,%d), batch (%d,%d)\nrules: %+v",
				i, rm, rf, bm, bf, rs)
		}
	}
}

// checkStepBatchCase builds a small rule set from raw bytes and checks both
// exact-engine forms of it — a DFA under a tight budget and budget zero,
// which is always lanes — behind whatever screen the compiler chose. Rule
// sets with no usable literal prefix (wildcard first steps) flow through the
// same cases with no screen.
func checkStepBatchCase(t *testing.T, data []byte) {
	c := &byteCursor{data: data}
	rs := buildFuzzRules(c)
	randomizeModes(c, rs)
	for _, budget := range []int{64, 0} {
		p, err := compile(rs, budget)
		if err != nil {
			return // invalid rule set; the compile fuzzer owns that path
		}
		checkStepBatch(t, c, p, 96)
	}
}

// TestStepBatchEquivalence10k re-proves batch/per-symbol agreement on ten
// thousand seeded random cases every ordinary `go test` run, then on every
// rule shape through the engine and screen the compiler picks for it.
func TestStepBatchEquivalence10k(t *testing.T) {
	cases := 10_000
	if testing.Short() {
		cases = 1_000
	}
	rng := rand.New(rand.NewSource(431))
	buf := make([]byte, 160)
	for i := 0; i < cases; i++ {
		rng.Read(buf)
		checkStepBatchCase(t, buf)
		if t.Failed() {
			t.Fatalf("diverged on case %d", i)
		}
	}
	eachShape(t, 431, 50, func(t *testing.T, _ ruleShape, c *byteCursor, rs []Rule) {
		randomizeModes(c, rs)
		checkStepBatch(t, c, mustCompile(t, rs), 512)
	})
}

// FuzzStepBatch lets the fuzzer hunt for chunkings or rule shapes where the
// skip-run scanner disagrees with the per-symbol executor.
// Run with: go test -fuzz=FuzzStepBatch ./internal/rules
func FuzzStepBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0x18, 1, 0xFF, 2, 0x19, 0, 0x00, 5, 9, 9})
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 16; i++ {
		buf := make([]byte, 16+rng.Intn(96))
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(checkStepBatchCase)
}

// The starter set is exact in both directions: a symbol is a starter if and
// only if one Step of a fresh executor on it leaves the start configuration.
// StepBatch and the injector's wake table skip non-starters in bulk, so a
// missing starter loses matches and a spurious one only costs speed; both
// are checked, for DFA and lane programs, with and without a prefilter.
func TestStarterSetExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 64)
	seen := map[string]int{}
	for caseN := 0; caseN < 1000; caseN++ {
		rng.Read(buf)
		c := &byteCursor{data: buf}
		rs := buildFuzzRules(c)
		for _, budget := range []int{64, 0} {
			p, err := compile(rs, budget)
			if err != nil {
				break
			}
			seen[fmt.Sprintf("%s/screen=%t", p.Stats().Mode, p.Prefilter() != nil)]++
			e := NewExecutor(p)
			for s := uint16(0); s < SymbolSpace; s++ {
				e.Reset()
				e.Step(s)
				if left := !e.InStart(); left != p.Starter(s) {
					t.Fatalf("case %d (%s): symbol %#03x: Starter = %t, but a Step from start leaves it: %t",
						caseN, p.Stats().Mode, s, p.Starter(s), left)
				}
			}
		}
	}
	for _, kind := range []string{"dfa/screen=true", "dfa/screen=false", "nfa-lanes/screen=true", "nfa-lanes/screen=false"} {
		if seen[kind] < 20 {
			t.Errorf("only %d random programs of kind %s; the check is thin there (%v)", seen[kind], kind, seen)
		}
	}
}
