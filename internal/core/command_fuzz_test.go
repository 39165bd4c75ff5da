package core

import (
	"reflect"
	"strings"
	"testing"

	"netfi/internal/rules"
)

// boardState is what a rejected command must leave alone: the selected
// direction and, per engine, the register file, the installed rules and
// their compiled program.
type boardState struct {
	dir   Direction
	cfg   [2]Config
	rules [2][]rules.Rule
	prog  [2]*rules.Program
}

func readBoard(dev *Device, dec *CommandDecoder) boardState {
	s := boardState{dir: dec.Direction()}
	for d := range s.cfg {
		e := dev.Engine(Direction(d))
		s.cfg[d] = e.Config()
		s.rules[d] = append([]rules.Rule(nil), e.Rules()...)
		s.prog[d] = e.RuleProgram()
	}
	return s
}

// FuzzCommandLine feeds raw bytes — CR/LF/NUL mixes, overlong lines, every
// command family — through the serial decoder's InputByte to a board
// holding one resident rule. No input may panic; a line answered ERR must
// leave both engines' configuration, rules and compiled program as they
// were; a line longer than maxLineLen must be answered ERR.
// Run with: go test -run='^FuzzCommandLine$' -fuzz=FuzzCommandLine ./internal/core
func FuzzCommandLine(f *testing.F) {
	for _, script := range []string{
		"MODE ON\nMODE OFF\rMODE ONCE\r\n",
		"DIR R\nCOMPARE -- -- 18 18\nCORRUPT REPLACE -- -- 19 --\nCRC ON\nDIR L\n",
		"CORRUPT TOGGLE !01 -- c0C x20\nCOMPARE 1 2 3\nINJECT\nSTAT\nCAP\nRESET\n",
		"RULE ADD 1 PRIO 2 MODE ONCE ACT TOGGLE PAT 55 VEC 0F\nRULE LIST\nRULE DEL 1\nRULE CLEAR\n",
		"RULE ADD 2 ACT REPLACE PAT A0 G2 B0 VEC 77\nRULE ADD 2 PAT 55 PAT 66\nRULE DEL 7\n",
		"MODE\x00ON\n\x00\n\r\r\nDIR X\nCRC MAYBE\nBOGUS\n",
		"MODE ON" + strings.Repeat(" ", 260) + "BOGUS\n",
		strings.Repeat("A", maxLineLen) + "\n" + strings.Repeat("B", maxLineLen+1) + "\rSTAT\n",
	} {
		f.Add([]byte(script))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dev, dec := newTestDecoder(t)
		if resp := dec.Exec("RULE ADD 9 PAT C0C"); resp != "OK" {
			t.Fatalf("arming the resident rule -> %q", resp)
		}
		var out []byte
		dec.SetOutput(func(b byte) { out = append(out, b) })
		before, lineLen, lines := readBoard(dev, dec), 0, 0
		for _, b := range data {
			n := len(out)
			dec.InputByte(b)
			if b != '\r' && b != '\n' {
				lineLen++
				continue
			}
			if lineLen == 0 {
				continue // an empty line is not a command
			}
			resp := string(out[n:])
			if lineLen > maxLineLen && !strings.HasPrefix(resp, "ERR") {
				t.Fatalf("line %d of %d characters -> %q, want ERR", lines, lineLen, resp)
			}
			after := readBoard(dev, dec)
			if strings.HasPrefix(resp, "ERR") && (after.prog != before.prog || !reflect.DeepEqual(after, before)) {
				t.Fatalf("line %d -> %q changed the board", lines, resp)
			}
			before, lineLen = after, 0
			if lines++; lines == 32 {
				return // each RULE ADD recompiles; bound the work per input
			}
		}
	})
}
