package core

import (
	"slices"
	"strings"
	"testing"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

func newTestDecoder(t *testing.T) (*Device, *CommandDecoder) {
	t.Helper()
	k := sim.NewKernel(1)
	dev := NewDevice(k, DeviceConfig{Name: "inj"})
	return dev, NewCommandDecoder(dev)
}

func TestCommandModeAndCompare(t *testing.T) {
	dev, dec := newTestDecoder(t)
	for _, cmd := range []string{
		"MODE ON",
		"COMPARE -- -- 18 18",
		"CORRUPT REPLACE -- -- 19 --",
	} {
		if resp := dec.Exec(cmd); resp != "OK" {
			t.Fatalf("%q -> %q", cmd, resp)
		}
	}
	cfg := dev.Engine(LeftToRight).Config()
	if cfg.Match != MatchOn {
		t.Errorf("Match = %v", cfg.Match)
	}
	if cfg.CompareData[2] != phy.DataChar(0x18) || cfg.CompareMask[2] != MaskFull {
		t.Errorf("compare[2] = %v/%v", cfg.CompareData[2], cfg.CompareMask[2])
	}
	if cfg.CompareMask[0] != MaskNone {
		t.Errorf("compare[0] mask = %v, want don't-care", cfg.CompareMask[0])
	}
	if cfg.Corrupt != CorruptReplace || cfg.CorruptData[2] != phy.DataChar(0x19) {
		t.Errorf("corrupt config wrong: %+v", cfg)
	}
	if cfg.CorruptMask[3] != MaskNone {
		t.Errorf("corrupt[3] must pass unchanged")
	}
}

func TestCommandControlSymbolEntries(t *testing.T) {
	dev, dec := newTestDecoder(t)
	// The Table 4 operation: replace STOP with GO.
	if resp := dec.Exec("COMPARE -- -- -- C0F"); resp != "OK" {
		t.Fatal(resp)
	}
	if resp := dec.Exec("CORRUPT REPLACE -- -- -- C03"); resp != "OK" {
		t.Fatal(resp)
	}
	cfg := dev.Engine(LeftToRight).Config()
	if cfg.CompareData[3] != phy.ControlChar(0x0F) {
		t.Errorf("compare[3] = %v, want C:0f", cfg.CompareData[3])
	}
	if cfg.CorruptData[3] != phy.ControlChar(0x03) {
		t.Errorf("corrupt[3] = %v, want C:03", cfg.CorruptData[3])
	}
}

func TestCommandDataOnlyMaskEntry(t *testing.T) {
	dev, dec := newTestDecoder(t)
	if resp := dec.Exec("COMPARE X0F -- -- --"); resp != "OK" {
		t.Fatal(resp)
	}
	cfg := dev.Engine(LeftToRight).Config()
	if cfg.CompareMask[0] != MaskData {
		t.Errorf("mask = %#x, want MaskData", cfg.CompareMask[0])
	}
}

func TestCommandToggleDCEntry(t *testing.T) {
	dev, dec := newTestDecoder(t)
	if resp := dec.Exec("CORRUPT TOGGLE -- -- -- !01"); resp != "OK" {
		t.Fatal(resp)
	}
	cfg := dev.Engine(LeftToRight).Config()
	if cfg.CorruptData[3] != phy.Character(0x101) {
		t.Errorf("toggle vector = %#x, want 0x101", uint16(cfg.CorruptData[3]))
	}
}

func TestCommandDirSelectsEngine(t *testing.T) {
	dev, dec := newTestDecoder(t)
	dec.Exec("DIR R")
	dec.Exec("MODE ONCE")
	if dev.Engine(RightToLeft).Config().Match != MatchOnce {
		t.Error("R engine not configured")
	}
	if dev.Engine(LeftToRight).Config().Match != MatchOff {
		t.Error("L engine unexpectedly configured")
	}
	dec.Exec("DIR L")
	dec.Exec("MODE ON")
	if dev.Engine(LeftToRight).Config().Match != MatchOn {
		t.Error("L engine not configured after DIR L")
	}
}

func TestCommandErrors(t *testing.T) {
	_, dec := newTestDecoder(t)
	for _, cmd := range []string{
		"BOGUS",
		"MODE",
		"MODE MAYBE",
		"DIR X",
		"COMPARE 18 18", // wrong arity
		"COMPARE ZZ -- -- --",
		"CORRUPT SCRAMBLE -- -- -- --",
		"CORRUPT REPLACE -- -- -- C0FF", // bad entry length
		"CRC SOMETIMES",
	} {
		if resp := dec.Exec(cmd); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q -> %q, want ERR", cmd, resp)
		}
	}
	total, errs := dec.Commands()
	if total != 9 || errs != 9 {
		t.Errorf("commands=%d errors=%d, want 9/9", total, errs)
	}
}

func TestCommandMalformedHexRejected(t *testing.T) {
	// Every entry parser must reject malformed hex with ERR, and a failed
	// command must leave the register file untouched (the decoder builds
	// the new configuration aside and only commits on full success).
	dev, dec := newTestDecoder(t)
	for _, cmd := range []string{
		"COMPARE ZZ -- -- --",  // bad plain data byte
		"COMPARE 1 -- -- --",   // one hex digit
		"COMPARE 123 -- -- --", // three digits, no known prefix
		"COMPARE CGG -- -- --", // control prefix, bad hex
		"COMPARE XQ9 -- -- --", // data-only prefix, bad hex
		"CORRUPT TOGGLE !ZZ -- -- --",
		"CORRUPT TOGGLE Q9 -- -- --",
		"CORRUPT REPLACE XZZ -- -- --",
		"CORRUPT REPLACE !0F -- -- --", // toggle syntax in replace mode
		"RULE ADD 1 PAT ZZ",
		"RULE ADD 1 ACT TOGGLE PAT 55 VEC !GG",
		"RULE ADD 1 ACT REPLACE PAT 55 VEC XZZ",
	} {
		if resp := dec.Exec(cmd); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q -> %q, want ERR", cmd, resp)
		}
	}
	eng := dev.Engine(LeftToRight)
	if eng.Config() != (Config{}) {
		t.Errorf("failed commands mutated the register file: %+v", eng.Config())
	}
	if len(eng.Rules()) != 0 {
		t.Errorf("failed RULE ADD left rules installed: %+v", eng.Rules())
	}
}

func TestCommandRuleGrammarErrors(t *testing.T) {
	dev, dec := newTestDecoder(t)
	for _, cmd := range []string{
		"RULE",                       // missing subcommand
		"RULE BOGUS",                 // unknown subcommand
		"RULE ADD",                   // missing id
		"RULE ADD X PAT 55",          // bad id
		"RULE ADD -1 PAT 55",         // negative id
		"RULE ADD 1",                 // no PAT
		"RULE ADD 1 PAT G2 55",       // gap before the first entry
		"RULE ADD 1 PAT 55 G2",       // trailing gap
		"RULE ADD 1 PAT 55 G1 G1 55", // consecutive gaps
		"RULE ADD 1 PAT 55 G0 55",    // zero gap token
		"RULE ADD 1 PAT 55 G33 55",   // gap beyond MaxGap (engine limit)
		"RULE ADD 1 MODE AFTER:X PAT 55",
		"RULE ADD 1 MODE MAYBE PAT 55",
		"RULE ADD 1 ACT SCRAMBLE PAT 55",
		"RULE ADD 1 ACT DROP:0 PAT 55",
		"RULE ADD 1 ACT TOGGLE PAT 55", // vectored action without VEC
		"RULE ADD 1 PAT 55 VEC 0F",     // VEC on capture-only
		"RULE ADD 1 FROB 3 PAT 55",     // unknown keyword
		"RULE DEL",                     // missing id
		"RULE DEL 7",                   // no such rule
	} {
		if resp := dec.Exec(cmd); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q -> %q, want ERR", cmd, resp)
		}
	}
	// A repeated section would otherwise silently win over the first.
	for kw, cmd := range map[string]string{
		"PAT":  "RULE ADD 1 PAT 55 PAT 66",
		"MODE": "RULE ADD 1 MODE ON MODE OFF PAT 55",
		"ACT":  "RULE ADD 1 ACT CAP PAT 55 ACT DROP",
		"PRIO": "RULE ADD 1 PRIO 1 PAT 55 PRIO 2",
		"VEC":  "RULE ADD 1 ACT TOGGLE PAT 55 VEC 0F VEC 01",
	} {
		if resp, want := dec.Exec(cmd), "ERR repeated RULE ADD keyword "+kw; resp != want {
			t.Errorf("%q -> %q, want %q", cmd, resp, want)
		}
	}
	if rs := dev.Engine(LeftToRight).Rules(); len(rs) != 0 {
		t.Errorf("failed RULE commands left rules installed: %+v", rs)
	}
}

func TestCommandOverlongLineRejected(t *testing.T) {
	// A line longer than the line buffer is answered ERR at its terminator
	// and changes no state, and the decoder keeps working afterwards.
	dev, dec := newTestDecoder(t)
	var out []byte
	dec.SetOutput(func(b byte) { out = append(out, b) })
	long := "MODE " + strings.Repeat("N", maxLineLen) + " ON\n"
	for _, b := range []byte(long) {
		dec.InputByte(b)
	}
	if resp := strings.TrimSpace(string(out)); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("overlong line -> %q, want ERR", resp)
	}
	if dev.Engine(LeftToRight).Config() != (Config{}) {
		t.Error("overlong line mutated the register file")
	}
	out = out[:0]
	for _, b := range []byte("MODE ON\n") {
		dec.InputByte(b)
	}
	if strings.TrimSpace(string(out)) != "OK" {
		t.Errorf("decoder wedged after overlong line: %q", out)
	}

	// The buffered prefix is a valid command here; the line still must not
	// run as it. ("MODE ON BOGUS" is an error, so this line is too.)
	dev, dec = newTestDecoder(t)
	out = out[:0]
	dec.SetOutput(func(b byte) { out = append(out, b) })
	for _, b := range []byte("MODE ON" + strings.Repeat(" ", 260) + "BOGUS\n") {
		dec.InputByte(b)
	}
	if resp := strings.TrimSpace(string(out)); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("overlong line with a valid prefix -> %q, want ERR", resp)
	}
	if dev.Engine(LeftToRight).Config() != (Config{}) {
		t.Error("overlong line with a valid prefix armed the trigger")
	}
}

func TestCommandStatAndReset(t *testing.T) {
	dev, dec := newTestDecoder(t)
	eng := dev.Engine(LeftToRight)
	_ = eng.Process(phy.DataChars([]byte{1, 2, 3}))
	resp := dec.Exec("STAT")
	if !strings.Contains(resp, "chars=3") {
		t.Errorf("STAT = %q, want chars=3", resp)
	}
	dec.Exec("MODE ON")
	dec.Exec("RESET")
	if eng.Config().Match != MatchOff {
		t.Error("RESET did not clear config")
	}
}

func TestCommandByteStreamAssembly(t *testing.T) {
	_, dec := newTestDecoder(t)
	var out []byte
	dec.SetOutput(func(b byte) { out = append(out, b) })
	for _, b := range []byte("MODE ON\r\nINJECT\n") {
		dec.InputByte(b)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 || lines[0] != "OK" || lines[1] != "OK" {
		t.Errorf("responses = %q", lines)
	}
}

func TestCommandLowercaseAccepted(t *testing.T) {
	dev, dec := newTestDecoder(t)
	if resp := dec.Exec("mode once"); resp != "OK" {
		t.Fatal(resp)
	}
	if dev.Engine(LeftToRight).Config().Match != MatchOnce {
		t.Error("lowercase command not applied")
	}
}

func TestCommandInjectNow(t *testing.T) {
	dev, dec := newTestDecoder(t)
	dec.Exec("CORRUPT TOGGLE -- -- -- FF")
	dec.Exec("INJECT")
	eng := dev.Engine(LeftToRight)
	out := append(eng.Process(phy.DataChars([]byte{0x00})), eng.Flush()...)
	if out[0].Byte() != 0xFF {
		t.Errorf("inject-now did not corrupt: %v", out[0])
	}
}

func TestCommandCapReportsEvents(t *testing.T) {
	dev, dec := newTestDecoder(t)
	dec.Exec("MODE ON")
	dec.Exec("COMPARE -- -- -- AA")
	dec.Exec("CORRUPT TOGGLE -- -- -- 01")
	eng := dev.Engine(LeftToRight)
	stream := append([]byte{1, 2, 0xAA}, make([]byte, DefaultCapturePost+4)...)
	_ = eng.Process(phy.DataChars(stream))
	resp := dec.Exec("CAP")
	if !strings.Contains(resp, "events=1") {
		t.Errorf("CAP = %q, want events=1", resp)
	}
}

// The decoder splits a line into fields in its own scratch, exactly as
// strings.Fields would, Unicode spaces and invalid UTF-8 included.
func TestAppendFieldsMatchesStringsFields(t *testing.T) {
	var scratch []string
	for _, s := range []string{"", "   ", "RULE ADD 1 PAT 55", "  MODE\tON \r\n", "a b c", "x\xffy z", "\x85DIR\x85L", "\u0085DIR L\u3000", "A\tB\tC\tD"} {
		scratch = appendFields(scratch[:0], s)
		if want := strings.Fields(s); !slices.Equal(scratch, want) {
			t.Errorf("appendFields(%q) = %q, want %q", s, scratch, want)
		}
	}
}
