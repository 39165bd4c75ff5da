package core

import (
	"math/rand"
	"testing"

	"netfi/internal/phy"
	"netfi/internal/rules"
)

// The batch datapath's contract is byte-identical behavior to the per-symbol
// path: same output stream, same counters, same captures, same pipeline
// state — under every register file, rule set, and chunking. These tests
// drive two engines over identical stimuli, one through Process and one
// through ProcessBatch, and diff everything observable.

type batchCursor struct {
	data []byte
	pos  int
}

func (c *batchCursor) next() byte {
	if c.pos >= len(c.data) {
		c.pos++
		return byte(c.pos * 131)
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

var batchMasks = []CharMask{MaskNone, MaskFull, MaskData, 0x100, 0x1F0, 0x003}

func batchConfig(c *batchCursor) Config {
	var cfg Config
	cfg.Match = MatchMode(c.next() % 3)
	cfg.Corrupt = CorruptMode(c.next() % 2)
	cfg.RecomputeCRC = c.next()%2 == 0
	for i := 0; i < WindowSize; i++ {
		cfg.CompareData[i] = phy.Character(c.next()) | phy.Character(c.next()&1)<<8
		cfg.CompareMask[i] = batchMasks[int(c.next())%len(batchMasks)]
		cfg.CorruptData[i] = phy.Character(c.next()) | phy.Character(c.next()&1)<<8
		cfg.CorruptMask[i] = batchMasks[int(c.next())%len(batchMasks)]
	}
	return cfg
}

// ruleGeometry is what a drawn rule set was sized for: literal > 0 gives
// every rule that many leading full-mask contiguous steps behind a distinct
// first symbol, so the compiled screen occupies exactly n*literal positions;
// blow hangs a MaxGap-bounded step on rule 0, which no 1024-state DFA can
// track, so the compiler lands on lanes.
type ruleGeometry struct {
	n, literal int
	blow       bool
}

// batchGeometry draws mostly zero to two free-form rules. A few draws in a
// hundred are sets sized so the compiler, unprompted, picks what no small set
// reaches: shift-and screens two, three and four words wide, and NFA lanes.
func batchGeometry(c *batchCursor) ruleGeometry {
	switch c.next() % 128 {
	case 0:
		return ruleGeometry{n: 64, literal: 2} // 128 positions
	case 1:
		// 129..192 positions; three-symbol prefixes straddle both word
		// boundaries.
		return ruleGeometry{n: 43 + int(c.next()%22), literal: 3}
	case 2:
		return ruleGeometry{n: 64, literal: 4} // 256 positions
	case 3:
		return ruleGeometry{n: 1 + int(c.next()%3), literal: 2, blow: true}
	case 4:
		return ruleGeometry{n: 64, literal: 4, blow: true}
	}
	return ruleGeometry{n: int(c.next() % 3)}
}

func batchRules(c *batchCursor, g ruleGeometry) []rules.Rule {
	rs := make([]rules.Rule, 0, g.n)
	base := uint16(c.next())
	for i := 0; i < g.n; i++ {
		r := rules.Rule{ID: i, Mode: rules.Mode(c.next() % 5), Priority: int(c.next() % 4)}
		switch r.Mode {
		case rules.ModeAfterN:
			r.N = uint64(c.next() % 3)
		case rules.ModeWindow:
			// The armed window reads the executor's symbol clock, which
			// bulk skipping advances without stepping the automaton — keep
			// some windows mid-stream so a clock drift flips fire gating.
			r.N = uint64(c.next()) * 2
		}
		steps := 1 + int(c.next()%4)
		if g.literal > 0 {
			steps = g.literal
		}
		for j := 0; j < steps; j++ {
			s := rules.Step{
				Sym:  uint16(c.next()) | uint16(c.next()&1)<<8,
				Mask: rules.SymbolMask,
			}
			switch {
			case g.literal == 0:
				switch c.next() % 8 {
				case 0:
					s.Mask = 0x0FF
				case 1:
					s.Mask = 0 // wildcard step: no usable literal prefix here
				}
				if j > 0 && c.next()%3 == 0 {
					// Mostly contiguous steps, so multi-symbol literal
					// prefixes dominate and the batch prefilter actually
					// engages; the occasional gap cuts the prefix short.
					s.Gap = 1 + int(c.next()%2)
				}
			case j == 0:
				s.Sym = 0x100 | (base+uint16(i))&0xFF
			}
			r.Steps = append(r.Steps, s)
		}
		if g.blow && i == 0 {
			r.Steps = append(r.Steps, rules.Step{
				Sym: uint16(c.next()) | uint16(c.next()&1)<<8, Mask: rules.SymbolMask, Gap: rules.MaxGap,
			})
		}
		switch c.next() % 4 {
		case 0:
			r.Action = rules.ActionCapture
		case 1:
			r.Action = rules.ActionToggle
			for v := 0; v <= int(c.next()%2); v++ {
				r.CorruptData = append(r.CorruptData, uint16(c.next())&rules.SymbolMask)
			}
		case 2:
			r.Action = rules.ActionReplace
			for v := 0; v <= int(c.next()%2); v++ {
				r.CorruptData = append(r.CorruptData, uint16(c.next())&rules.SymbolMask)
				r.CorruptMask = append(r.CorruptMask, uint16(c.next())&rules.SymbolMask)
			}
		case 3:
			r.Action = rules.ActionDrop
			r.DropCount = 1 + int(c.next()%2)
		}
		rs = append(rs, r)
	}
	return rs
}

// batchStream biases characters toward the compare pattern and rule anchors
// so matches, injections and CRC substitutions all happen, with GAP and
// RESET control symbols mixed in for packet framing.
func batchStream(c *batchCursor, cfg Config, rs []rules.Rule, n int) []phy.Character {
	pool := []phy.Character{
		phy.ControlChar(0x0C), // GAP: packet framing + CRC reset
		phy.ControlChar(LinkResetCode),
		phy.ControlChar(0x00),
		phy.DataChar(0x00),
	}
	for i := 0; i < WindowSize; i++ {
		pool = append(pool, cfg.CompareData[i]&(dcFlag|0xFF))
	}
	for i := range rs {
		for _, s := range rs[i].Steps {
			pool = append(pool, phy.Character(s.Sym)&(dcFlag|0xFF))
		}
	}
	stream := make([]phy.Character, 0, n)
	for len(stream) < n {
		b := c.next()
		switch {
		case b%16 == 0:
			// A long packet: a data run far exceeding the slack (so the
			// cut-through path pops mid-packet), a late pattern hit, then
			// GAP — the shape that makes CRC substitution consume a
			// bulk-maintained running CRC.
			run := 24 + int(c.next()%72)
			for k := 0; k < run && len(stream) < n; k++ {
				if c.next()%8 == 0 {
					stream = append(stream, pool[int(c.next())%len(pool)]|dcFlag)
				} else {
					stream = append(stream, phy.DataChar(c.next()))
				}
			}
			stream = append(stream, phy.ControlChar(0x0C))
		case b%16 == 1 && len(rs) > 0:
			// Some rule's steps in order, short gaps filled: with hundreds
			// of anchors in the pool, single draws almost never line up a
			// multi-symbol prefix by themselves.
			for _, s := range rs[int(c.next())%len(rs)].Steps {
				if s.Gap > 0 && c.next()%2 == 0 {
					stream = append(stream, phy.DataChar(c.next()))
				}
				stream = append(stream, phy.Character(s.Sym)&(dcFlag|0xFF))
			}
		case b&3 != 3:
			stream = append(stream, pool[int(b>>2)%len(pool)])
		default:
			stream = append(stream, phy.Character(c.next())|phy.Character(c.next()&1)<<8)
		}
	}
	return stream[:n]
}

func diffEngines(t *testing.T, caseN, chunkN int, ref, batch *Engine) {
	t.Helper()
	rc, rm, ri := ref.Stats()
	bc, bm, bi := batch.Stats()
	if rc != bc || rm != bm || ri != bi {
		t.Fatalf("case %d chunk %d: stats diverged: per-symbol (%d,%d,%d), batch (%d,%d,%d)",
			caseN, chunkN, rc, rm, ri, bc, bm, bi)
	}
	if ref.DroppedChars() != batch.DroppedChars() {
		t.Fatalf("case %d chunk %d: dropped diverged: %d vs %d", caseN, chunkN, ref.DroppedChars(), batch.DroppedChars())
	}
	if ref.ResetsSeen() != batch.ResetsSeen() {
		t.Fatalf("case %d chunk %d: resets diverged: %d vs %d", caseN, chunkN, ref.ResetsSeen(), batch.ResetsSeen())
	}
	if ref.Pending() != batch.Pending() {
		t.Fatalf("case %d chunk %d: pending diverged: %d vs %d", caseN, chunkN, ref.Pending(), batch.Pending())
	}
}

// checkSelection fails when a sized rule set did not compile to the engine
// and screen width it was sized for — the sweep would silently stop covering
// that pairing.
func checkSelection(t *testing.T, caseN int, g ruleGeometry, p *rules.Program) {
	t.Helper()
	if lanes := p.Stats().Mode == "nfa-lanes"; lanes != g.blow {
		t.Fatalf("case %d: geometry %+v compiled to %s", caseN, g, p.Stats().Mode)
	}
	pf := p.Prefilter()
	if want := (g.n*g.literal + 63) / 64; pf == nil || pf.Words() != want {
		t.Fatalf("case %d: geometry %+v: screen %v, want %d words", caseN, g, pf, want)
	}
}

func checkEngineBatchCase(t *testing.T, caseN int, data []byte) {
	c := &batchCursor{data: data}
	slacks := []int{WindowSize, WindowSize + 1, 8, DefaultSlackChars}
	slack := slacks[int(c.next())%len(slacks)]
	cfg := batchConfig(c)
	g := batchGeometry(c)
	rs := batchRules(c, g)

	ref := NewEngine(slack)
	batch := NewEngine(slack)
	ref.Configure(cfg)
	batch.Configure(cfg)
	if len(rs) > 0 {
		// The per-symbol reference never uses the screen, so whatever the
		// compiler picked is checked against exact execution.
		if p, err := rules.Compile(rs, rules.Options{}); err == nil {
			if g.literal > 0 {
				checkSelection(t, caseN, g, p)
			}
			ref.SetRuleProgram(p)
			batch.SetRuleProgram(p)
		}
	}

	stream := batchStream(c, cfg, rs, 400)
	pos, chunkN := 0, 0
	for pos < len(stream) {
		switch c.next() {
		case 0:
			ref.InjectNow()
			batch.InjectNow()
		case 1:
			m := MatchMode(c.next() % 3)
			ref.SetMatchMode(m)
			batch.SetMatchMode(m)
		case 2:
			cfg2 := batchConfig(c)
			ref.Configure(cfg2)
			batch.Configure(cfg2)
		}
		n := 1 + int(c.next())%48
		if pos+n > len(stream) {
			n = len(stream) - pos
		}
		chunk := stream[pos : pos+n]
		outR := ref.Process(chunk)
		outB := batch.ProcessBatch(chunk)
		if len(outR) != len(outB) {
			t.Fatalf("case %d chunk %d: output length diverged: %d vs %d\nper-symbol: %v\nbatch:      %v",
				caseN, chunkN, len(outR), len(outB), outR, outB)
		}
		for k := range outR {
			if outR[k] != outB[k] {
				t.Fatalf("case %d chunk %d: output[%d] diverged: %v vs %v\nper-symbol: %v\nbatch:      %v",
					caseN, chunkN, k, outR[k], outB[k], outR, outB)
			}
		}
		diffEngines(t, caseN, chunkN, ref, batch)
		pos += n
		chunkN++
	}

	flushR := ref.Flush()
	flushB := batch.Flush()
	if len(flushR) != len(flushB) {
		t.Fatalf("case %d: flush length diverged: %d vs %d", caseN, len(flushR), len(flushB))
	}
	for k := range flushR {
		if flushR[k] != flushB[k] {
			t.Fatalf("case %d: flush[%d] diverged: %v vs %v", caseN, k, flushR[k], flushB[k])
		}
	}
	evR, evB := ref.Capture().Events(), batch.Capture().Events()
	if len(evR) != len(evB) {
		t.Fatalf("case %d: capture event count diverged: %d vs %d", caseN, len(evR), len(evB))
	}
	for k := range evR {
		if evR[k].PreLen != evB[k].PreLen || len(evR[k].Context) != len(evB[k].Context) {
			t.Fatalf("case %d: capture %d geometry diverged: (%d,%d) vs (%d,%d)",
				caseN, k, evR[k].PreLen, len(evR[k].Context), evB[k].PreLen, len(evB[k].Context))
		}
		for x := range evR[k].Context {
			if evR[k].Context[x] != evB[k].Context[x] {
				t.Fatalf("case %d: capture %d context[%d] diverged: %v vs %v",
					caseN, k, x, evR[k].Context[x], evB[k].Context[x])
			}
		}
	}
}

// TestProcessBatchEquivalence10k drives ten thousand seeded random cases —
// register files, rule sets, control-symbol framing, mid-stream
// reconfiguration and InjectNow, random chunkings — through both datapaths.
func TestProcessBatchEquivalence10k(t *testing.T) {
	cases := 10_000
	if testing.Short() {
		cases = 1_000
	}
	rng := rand.New(rand.NewSource(640)) // the paper's 640 Mb/s link rate
	buf := make([]byte, 1024)
	for i := 0; i < cases; i++ {
		rng.Read(buf)
		checkEngineBatchCase(t, i, buf)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// FuzzProcessBatch lets the fuzzer search for a stimulus separating the two
// datapaths. Run with: go test -fuzz=FuzzProcessBatch ./internal/core
func FuzzProcessBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0C, 0x05, 0xFF})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 16; i++ {
		buf := make([]byte, 64+rng.Intn(512))
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEngineBatchCase(t, 0, data)
	})
}

// A taint leak would be invisible to the equivalence suite — the engine
// would just fall back to per-symbol forever — so pin the accounting
// directly: once every corrupted slot has retired, the fast path re-arms.
func TestTaintDrainsAfterInjection(t *testing.T) {
	e := NewEngine(DefaultSlackChars)
	e.Configure(Config{
		Match:       MatchOnce,
		CompareData: [WindowSize]phy.Character{0, 0, 0, phy.DataChar(0x42)},
		CompareMask: [WindowSize]CharMask{0, 0, 0, MaskFull},
		Corrupt:     CorruptToggle,
		CorruptData: [WindowSize]phy.Character{0, 0, 0, 0x0F},
	})
	burst := phy.DataChars(make([]byte, 64))
	burst[10] = phy.DataChar(0x42)
	e.ProcessBatch(burst)
	_, _, inj := e.Stats()
	if inj != 1 {
		t.Fatalf("injections = %d, want 1", inj)
	}
	if e.taint != 0 {
		t.Fatalf("taint = %d after the corrupted slot retired, want 0", e.taint)
	}
	if !e.bulkEligible() {
		t.Fatal("bulk path did not re-arm after the injection drained")
	}
}

// The cut-through path must stay allocation-free like the per-symbol path.
func TestProcessBatchNoAllocs(t *testing.T) {
	e := NewEngine(DefaultSlackChars)
	burst := phy.DataChars(make([]byte, 1024))
	e.ProcessBatch(burst) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		e.ProcessBatch(burst)
	})
	if allocs != 0 {
		t.Errorf("ProcessBatch allocates %.1f times per burst; want 0", allocs)
	}
}
