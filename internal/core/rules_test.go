package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"netfi/internal/bitstream"
	"netfi/internal/phy"
	"netfi/internal/rules"
)

// oneStepRule builds a single-step full-mask data-byte rule.
func oneStepRule(id int, b byte, act rules.Action) rules.Rule {
	return rules.Rule{
		ID:     id,
		Mode:   rules.ModeOn,
		Action: act,
		Steps:  []rules.Step{{Sym: 0x100 | uint16(b), Mask: rules.SymbolMask}},
	}
}

func TestEngineRuleToggle(t *testing.T) {
	e := NewEngine(DefaultSlackChars)
	r := oneStepRule(1, 0x55, rules.ActionToggle)
	r.CorruptData = []uint16{0x0F}
	if err := e.AddRule(r); err != nil {
		t.Fatal(err)
	}
	out := bytesOf(runThrough(e, dataChars([]byte{0x11, 0x55, 0x22, 0x55})))
	want := []byte{0x11, 0x5A, 0x22, 0x5A}
	if !bytes.Equal(out, want) {
		t.Errorf("out % X, want % X", out, want)
	}
	if m, f, ok := e.RuleCounters(1); !ok || m != 2 || f != 2 {
		t.Errorf("counters = %d/%d ok=%v, want 2/2 true", m, f, ok)
	}
	if _, _, inj := e.Stats(); inj != 2 {
		t.Errorf("injections = %d, want 2", inj)
	}
}

func TestEngineRuleReplacePriority(t *testing.T) {
	// Two replace rules fire on the same character; the higher-priority
	// one's byte must land last and win.
	e := NewEngine(DefaultSlackChars)
	lo := oneStepRule(1, 0x55, rules.ActionReplace)
	lo.Priority = 1
	lo.CorruptData = []uint16{0x1AA}
	lo.CorruptMask = []uint16{uint16(MaskData)}
	hi := oneStepRule(2, 0x55, rules.ActionReplace)
	hi.Priority = 9
	hi.CorruptData = []uint16{0x1BB}
	hi.CorruptMask = []uint16{uint16(MaskData)}
	for _, r := range []rules.Rule{hi, lo} { // install order must not matter
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	out := bytesOf(runThrough(e, dataChars([]byte{0x55})))
	if !bytes.Equal(out, []byte{0xBB}) {
		t.Errorf("out % X, want BB (priority 9 wins)", out)
	}
}

func TestEngineRuleDrop(t *testing.T) {
	e := NewEngine(DefaultSlackChars)
	r := oneStepRule(1, 0x55, rules.ActionDrop)
	r.DropCount = 2 // the matching character and its predecessor
	if err := e.AddRule(r); err != nil {
		t.Fatal(err)
	}
	out := bytesOf(runThrough(e, dataChars([]byte{0x11, 0x22, 0x55, 0x33})))
	want := []byte{0x11, 0x33}
	if !bytes.Equal(out, want) {
		t.Errorf("out % X, want % X", out, want)
	}
	if d := e.DroppedChars(); d != 2 {
		t.Errorf("DroppedChars = %d, want 2", d)
	}
}

func TestEngineRuleGapSequence(t *testing.T) {
	// A0 then B0 within two characters, replacing B0.
	e := NewEngine(DefaultSlackChars)
	r := rules.Rule{
		ID: 1, Mode: rules.ModeOn, Action: rules.ActionReplace,
		Steps: []rules.Step{
			{Sym: 0x1A0, Mask: rules.SymbolMask},
			{Sym: 0x1B0, Mask: rules.SymbolMask, Gap: 2},
		},
		CorruptData: []uint16{0x1EE},
		CorruptMask: []uint16{uint16(MaskData)},
	}
	if err := e.AddRule(r); err != nil {
		t.Fatal(err)
	}
	out := bytesOf(runThrough(e, dataChars([]byte{
		0xA0, 0x01, 0xB0, // gap 1: fires, B0 -> EE
		0xA0, 0x01, 0x02, 0x03, 0xB0, // gap 3: silent
	})))
	want := []byte{0xA0, 0x01, 0xEE, 0xA0, 0x01, 0x02, 0x03, 0xB0}
	if !bytes.Equal(out, want) {
		t.Errorf("out % X, want % X", out, want)
	}
}

func TestEngineRuleMatchesLegacyConfig(t *testing.T) {
	// The legacy register file, expressed as a one-rule set, must corrupt
	// the stream identically once the window has shifted past idle fill.
	cfg := Config{
		Match: MatchOn,
		CompareData: [WindowSize]phy.Character{
			phy.DataChar(0x18), phy.DataChar(0x19), 0, 0,
		},
		CompareMask: [WindowSize]CharMask{MaskFull, MaskFull, MaskNone, MaskNone},
		Corrupt:     CorruptToggle,
		CorruptData: [WindowSize]phy.Character{0, 0x40, 0, 0},
	}
	stream := dataChars([]byte{
		0x01, 0x02, 0x03, 0x04, 0x18, 0x19, 0x05, 0x06, 0x18, 0x19, 0x07, 0x08,
	})

	legacy := NewEngine(DefaultSlackChars)
	legacy.Configure(cfg)
	wantOut := runThrough(legacy, stream)

	ruled := NewEngine(DefaultSlackChars)
	if err := ruled.AddRule(RuleFromConfig(1, cfg)); err != nil {
		t.Fatal(err)
	}
	gotOut := runThrough(ruled, stream)

	if !bytes.Equal(bytesOf(gotOut), bytesOf(wantOut)) {
		t.Errorf("rule path % X\nlegacy    % X", bytesOf(gotOut), bytesOf(wantOut))
	}
	_, legacyMatches, _ := legacy.Stats()
	m, _, _ := ruled.RuleCounters(1)
	if m != legacyMatches {
		t.Errorf("rule matches %d, legacy matches %d", m, legacyMatches)
	}
}

func TestEngineRuleDropWithCRCRecompute(t *testing.T) {
	// Dropping a payload byte must mark the packet corrupted so the
	// recomputed CRC covers the deletion.
	e := NewEngine(DefaultSlackChars)
	e.Configure(Config{RecomputeCRC: true})
	r := oneStepRule(1, 0x55, rules.ActionDrop)
	r.DropCount = 1
	if err := e.AddRule(r); err != nil {
		t.Fatal(err)
	}
	in := []phy.Character{
		phy.DataChar(0x01), phy.DataChar(0x55), phy.DataChar(0x02),
		phy.DataChar(0xAA), // stale CRC position
		phy.ControlChar(0x0C),
	}
	out := runThrough(e, in)
	if len(out) != 4 {
		t.Fatalf("out %d chars, want 4 (one dropped)", len(out))
	}
	want := bitstream.CRC8Update(bitstream.CRC8Update(0, 0x01), 0x02)
	if got := out[2].Byte(); got != want {
		t.Errorf("trailing CRC %02X, want %02X (CRC of the stream as retransmitted)", got, want)
	}
}

func TestEngineRuleManagement(t *testing.T) {
	e := NewEngine(DefaultSlackChars)
	if err := e.AddRule(oneStepRule(1, 0x10, rules.ActionCapture)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(oneStepRule(2, 0x20, rules.ActionCapture)); err != nil {
		t.Fatal(err)
	}
	// Replacing rule 1 keeps its position and the set size.
	repl := oneStepRule(1, 0x30, rules.ActionCapture)
	if err := e.AddRule(repl); err != nil {
		t.Fatal(err)
	}
	if rs := e.Rules(); len(rs) != 2 || rs[0].ID != 1 || rs[0].Steps[0].Sym != 0x130 {
		t.Fatalf("rules after replace: %+v", rs)
	}
	if !e.DeleteRule(2) || e.DeleteRule(2) {
		t.Error("DeleteRule existence reporting broken")
	}
	if _, _, ok := e.RuleCounters(2); ok {
		t.Error("deleted rule still has counters")
	}
	e.ClearRules()
	if e.RuleProgram() != nil || len(e.Rules()) != 0 {
		t.Error("ClearRules left state behind")
	}
	// Oversized vectors are rejected before reaching the compiler.
	bad := oneStepRule(3, 0x40, rules.ActionToggle)
	bad.CorruptData = make([]uint16, WindowSize+1)
	if err := e.AddRule(bad); err == nil {
		t.Error("AddRule accepted a vector longer than the window")
	}
	bad = oneStepRule(4, 0x40, rules.ActionDrop)
	bad.DropCount = WindowSize + 1
	if err := e.AddRule(bad); err == nil {
		t.Error("AddRule accepted a drop count longer than the window")
	}
}

func TestRuleCommands(t *testing.T) {
	dev, dec := newTestDecoder(t)

	for _, cmd := range []string{
		"RULE ADD 1 PRIO 2 MODE ONCE ACT TOGGLE PAT 55 VEC 0F",
		"RULE ADD 2 ACT REPLACE PAT a0 g2 b0 VEC x77",
		"RULE ADD 3 MODE AFTER:1 ACT DROP:2 PAT c0c",
		"RULE ADD 4 PAT -- 23 28",
	} {
		if resp := dec.Exec(cmd); resp != "OK" {
			t.Fatalf("%q -> %q", cmd, resp)
		}
	}
	list := dec.Exec("RULE LIST")
	if !strings.Contains(list, "count=4") || !strings.Contains(list, "mode=dfa") {
		t.Errorf("RULE LIST = %q", list)
	}
	for _, want := range []string{
		"RULE[1] prio=2 mode=ONCE act=TOGGLE steps=1",
		"RULE[2] prio=0 mode=ON act=REPLACE steps=2",
		"RULE[3] prio=0 mode=AFTER act=DROP steps=1",
		"RULE[4] prio=0 mode=ON act=CAP steps=3",
	} {
		if !strings.Contains(list, want) {
			t.Errorf("RULE LIST missing %q in %q", want, list)
		}
	}
	if stat := dec.Exec("STAT"); !strings.Contains(stat, "rules=4") {
		t.Errorf("STAT = %q", stat)
	}
	// states= is the size of the automaton that runs: the DFA's 27 states,
	// not their sum with the 13 lane states, or the summed lane states
	// (13 + 35) once a 32-symbol gap blows the DFA budget.
	for _, c := range []struct{ cmd, want string }{
		{"RULE LIST", "count=4 mode=dfa states=27\n"},
		{"RULE ADD 5 PAT 55 G32 66", "OK"},
		{"RULE LIST", "count=5 mode=nfa-lanes states=48\n"},
		{"RULE DEL 5", "OK"},
	} {
		if resp := dec.Exec(c.cmd); !strings.Contains(resp, c.want) {
			t.Errorf("%q -> %q, want %q in it", c.cmd, resp, c.want)
		}
	}
	if resp := dec.Exec("RULE DEL 3"); resp != "OK" {
		t.Errorf("RULE DEL -> %q", resp)
	}
	if resp := dec.Exec("RULE DEL 3"); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("deleting a missing rule -> %q", resp)
	}
	if resp := dec.Exec("RESET"); resp != "OK" {
		t.Errorf("RESET -> %q", resp)
	}
	if list := dec.Exec("RULE LIST"); !strings.Contains(list, "count=0") {
		t.Errorf("RESET did not clear rules: %q", list)
	}

	// The armed rules act on the datapath: toggle via the serial path.
	if resp := dec.Exec("RULE ADD 7 ACT TOGGLE PAT 55 VEC 0F"); resp != "OK" {
		t.Fatalf("re-arm -> %q", resp)
	}
	eng := dev.Engine(dec.Direction())
	out := bytesOf(runThrough(eng, dataChars([]byte{0x55})))
	if !bytes.Equal(out, []byte{0x5A}) {
		t.Errorf("serial-armed toggle: out % X, want 5A", out)
	}
}

// A rule list whose steps the engine has compiled before is bound to the
// automaton in its memo, which is keyed by the steps alone: re-adding a
// rule, or changing only its vector, action, mode, priority or drop count,
// compiles nothing and allocates nothing, re-arms every rule, and fires
// with the new fields. A full memo starts over instead of growing.
func TestEngineRuleProgramMemo(t *testing.T) {
	dev, dec := newTestDecoder(t)
	e := dev.Engine(LeftToRight)
	exec := func(line string) {
		if resp := dec.Exec(line); resp != "OK" {
			t.Fatalf("%s -> %q", line, resp)
		}
	}
	const a, b = "RULE ADD 70 MODE ONCE ACT DROP PAT C0C", "RULE ADD 70 MODE ONCE ACT TOGGLE PAT 55 VEC 3F"
	for _, line := range []string{a, b, a} {
		exec(line)
	}
	e.Process([]phy.Character{phy.ControlChar(0x0C)})
	if m, f, _ := e.RuleCounters(70); m != 1 || f != 1 {
		t.Fatalf("armed rule counted %d matches, %d fires; want 1, 1", m, f)
	}
	exec(b)
	exec(a)
	if m, f, _ := e.RuleCounters(70); m != 0 || f != 0 {
		t.Errorf("a memoised automaton was bound without re-arming: %d matches, %d fires", m, f)
	}
	if got := testing.AllocsPerRun(20, func() { dec.Exec(b); dec.Exec(a) }); got != 0 {
		t.Errorf("re-adding memoised rule sets allocates %v objects, want 0", got)
	}

	for _, c := range []struct {
		line, list string
		in, out    []byte
	}{
		{b, "act=TOGGLE steps=1 matches=0 fires=0 vec=3F", []byte{0x55}, []byte{0x6A}},
		{"RULE ADD 70 MODE ONCE ACT TOGGLE PAT 55 VEC 40", "vec=40", []byte{0x55, 0x55}, []byte{0x15, 0x55}},
		{"RULE ADD 70 ACT REPLACE PAT 55 VEC 66", "mode=ON act=REPLACE steps=1 matches=0 fires=0 vec=166/1FF", []byte{0x55, 0x55}, []byte{0x66, 0x66}},
		{"RULE ADD 70 PRIO 2 MODE AFTER:1 ACT TOGGLE PAT 55 VEC 01", "prio=2 mode=AFTER", []byte{0x55, 0x55}, []byte{0x55, 0x54}},
		{"RULE ADD 70 ACT DROP:2 PAT 55", "act=DROP", []byte{0x11, 0x55, 0x22}, []byte{0x22}},
	} {
		if got := testing.AllocsPerRun(5, func() { exec(c.line) }); got != 0 {
			t.Errorf("%s: binding a memoised automaton allocates %v objects, want 0", c.line, got)
		}
		if n := len(e.store.sets); n != 2 {
			t.Errorf("%s: the memo holds %d automata, want the 2 patterns'", c.line, n)
		}
		if list := dec.Exec("RULE LIST"); !strings.Contains(list, c.list) {
			t.Errorf("%s: RULE LIST = %q, want %q in it", c.line, list, c.list)
		}
		if out := bytesOf(runThrough(e, dataChars(c.in))); !bytes.Equal(out, c.out) {
			t.Errorf("%s: % X -> % X, want % X", c.line, c.in, out, c.out)
		}
	}

	// Vectors the engine has never armed: each is bound without
	// allocating, and the memo keeps the one automaton of their pattern.
	fresh := make([]string, 2*maxPrograms)
	for v := range fresh {
		fresh[v] = fmt.Sprintf("RULE ADD 70 ACT TOGGLE PAT 55 VEC %02X", 0x80+v)
	}
	run := 0
	if got := testing.AllocsPerRun(len(fresh)-1, func() { exec(fresh[run]); run++ }); got != 0 {
		t.Errorf("arming a new vector allocates %v objects, want 0", got)
	}
	if n := len(e.store.sets); n != 2 {
		t.Errorf("after %d vectors the memo holds %d automata, want 2", len(fresh), n)
	}
	if list := dec.Exec("RULE LIST"); !strings.Contains(list, "vec=FF") {
		t.Errorf("RULE LIST = %q, want the last vector, FF", list)
	}

	for v := 1; v <= 2*maxPrograms; v++ {
		exec(fmt.Sprintf("RULE ADD 70 PAT %02X", v))
		if len(e.store.sets) > maxPrograms {
			t.Fatalf("memo holds %d automata, bound %d", len(e.store.sets), maxPrograms)
		}
	}
}

// TestEngineRuleMemoSplitsSteps: the memo key keeps each rule's steps
// apart, so two rule lists whose steps run the same but split differently
// between their rules, [PAT 55 55][PAT 3A] and [PAT 55][PAT 55 3A], are two
// automata and each fires as its own rules say.
func TestEngineRuleMemoSplitsSteps(t *testing.T) {
	dev, dec := newTestDecoder(t)
	e := dev.Engine(LeftToRight)
	for _, c := range []struct {
		lines        []string
		want1, want2 uint64 // matches over 55 3A
	}{
		{[]string{"RULE ADD 1 PAT 55 55", "RULE ADD 2 PAT 3A"}, 0, 1},
		{[]string{"RULE CLEAR", "RULE ADD 1 PAT 55", "RULE ADD 2 PAT 55 3A"}, 1, 1},
	} {
		for _, line := range c.lines {
			if resp := dec.Exec(line); resp != "OK" {
				t.Fatalf("%s -> %q", line, resp)
			}
		}
		runThrough(e, dataChars([]byte{0x55, 0x3A}))
		m1, _, _ := e.RuleCounters(1)
		m2, _, _ := e.RuleCounters(2)
		if m1 != c.want1 || m2 != c.want2 {
			t.Errorf("%q: rules matched %d and %d times, want %d and %d", c.lines, m1, m2, c.want1, c.want2)
		}
	}
	if n := len(e.store.sets); n != 4 {
		t.Errorf("the memo holds %d automata, want 4: [55 55], [55 55][3A], [55], [55][55 3A]", n)
	}
}

// RuleFromConfig expresses the legacy single-pattern register file as an
// equivalent one-rule set: the compare window becomes a gap-free 4-step
// sequence and the corrupt vector keeps its per-position alignment. The two
// paths agree once the compare register has shifted past its idle fill
// (the automaton consumes only real stream symbols).
func RuleFromConfig(id int, cfg Config) rules.Rule {
	r := rules.Rule{ID: id}
	switch cfg.Match {
	case MatchOn:
		r.Mode = rules.ModeOn
	case MatchOnce:
		r.Mode = rules.ModeOnce
	default:
		r.Mode = rules.ModeOff
	}
	for i := 0; i < WindowSize; i++ {
		r.Steps = append(r.Steps, rules.Step{
			Sym:  uint16(cfg.CompareData[i]) & rules.SymbolMask,
			Mask: uint16(cfg.CompareMask[i]) & rules.SymbolMask,
		})
	}
	if cfg.Corrupt == CorruptToggle {
		r.Action = rules.ActionToggle
		for i := 0; i < WindowSize; i++ {
			r.CorruptData = append(r.CorruptData, uint16(cfg.CorruptData[i])&rules.SymbolMask)
		}
	} else {
		r.Action = rules.ActionReplace
		for i := 0; i < WindowSize; i++ {
			r.CorruptData = append(r.CorruptData, uint16(cfg.CorruptData[i])&rules.SymbolMask)
			r.CorruptMask = append(r.CorruptMask, uint16(cfg.CorruptMask[i])&rules.SymbolMask)
		}
	}
	return r
}
