package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"netfi/internal/phy"
	"netfi/internal/rules"
)

// CommandDecoder is the large FSM of §3.3 that receives configuration data
// from the communications handler and applies it to the injector circuitry;
// its companion output generator produces the ASCII acknowledgment/error
// codes sent back over the serial link.
//
// The command language (one ASCII line per command, LF- or CR-terminated):
//
//	DIR L|R                       select the direction configured next
//	MODE ON|OFF|ONCE              match mode
//	COMPARE e e e e               compare data+mask, oldest position first
//	CORRUPT TOGGLE e e e e        corrupt vector, toggle mode
//	CORRUPT REPLACE e e e e       corrupt vector+mask, replace mode
//	CRC ON|OFF                    recompute the trailing CRC-8 after injection
//	INJECT                        inject now (next even clock cycle)
//	STAT                          report chars/matches/injections
//	CAP                           report completed capture events
//	RESET                         clear configuration, rules and statistics
//
// The multi-rule trigger engine (internal/rules) is programmed with the
// RULE family (see command_rules.go for the grammar):
//
//	RULE ADD <id> [PRIO <p>] [MODE <m>] [ACT <a>] PAT <e...> [VEC <e...>]
//	RULE DEL <id>                 remove one rule
//	RULE LIST                     list rules with match/fire counters
//	RULE CLEAR                    remove all rules
//
// A window entry e is one of:
//
//	--      don't care (compare) / pass unchanged (corrupt)
//	XX      data character 0xXX, all 9 bits significant
//	cXX     control character 0xXX (D/C = 0), all 9 bits significant
//	xXX     compare only: match the 8 data bits, ignore the D/C flag
//	!XX     toggle only: flip data bits XX and the D/C flag
//
// Responses are "OK", "ERR <reason>", or data lines followed by "OK".
type CommandDecoder struct {
	dev *Device
	dir Direction

	line     []byte
	overlong bool // the line outgrew maxLineLen: answer ERR at its end
	out      func(byte)

	// Parse scratch, refilled by every command: the line's fields and the
	// rule a RULE ADD builds (the engine keeps a compiled copy, not this).
	fields []string
	rule   rules.Rule

	commands uint64
	errors   uint64
}

// maxLineLen bounds command assembly, as a hardware line buffer would.
const maxLineLen = 256

// NewCommandDecoder returns a decoder driving dev, initially configuring
// the left-to-right direction.
func NewCommandDecoder(dev *Device) *CommandDecoder {
	return &CommandDecoder{dev: dev}
}

// SetOutput registers the output generator's byte sink (toward the SPI /
// UART path back to the external system).
func (c *CommandDecoder) SetOutput(fn func(byte)) { c.out = fn }

// Direction reports which direction subsequent commands configure.
func (c *CommandDecoder) Direction() Direction { return c.dir }

// Commands reports executed commands and how many returned errors.
func (c *CommandDecoder) Commands() (total, errors uint64) { return c.commands, c.errors }

// InputByte feeds one byte from the communications handler. Lines are
// executed on CR or LF; a line longer than maxLineLen is answered ERR at
// its terminator and changes nothing, since its truncated prefix may be a
// different valid command.
func (c *CommandDecoder) InputByte(b byte) {
	switch b {
	case '\r', '\n':
		if len(c.line) == 0 {
			return
		}
		line := string(c.line)
		c.line = c.line[:0]
		if c.overlong {
			c.overlong = false
			c.commands++
			c.errors++
			c.emit(fmt.Sprintf("ERR line longer than %d characters", maxLineLen))
			return
		}
		c.emit(c.Exec(line))
	default:
		if len(c.line) < maxLineLen {
			c.line = append(c.line, b)
		} else {
			c.overlong = true
		}
	}
}

// emit sends a response line through the output generator.
func (c *CommandDecoder) emit(resp string) {
	if c.out == nil {
		return
	}
	for i := 0; i < len(resp); i++ {
		c.out(resp[i])
	}
	c.out('\n')
}

// Exec executes one command line and returns the response (without the
// trailing newline). Campaign frameworks may call it directly; the serial
// path arrives through InputByte.
func (c *CommandDecoder) Exec(line string) string {
	c.commands++
	resp, err := c.exec(line)
	if err != nil {
		c.errors++
		return "ERR " + err.Error()
	}
	if resp == "" {
		return "OK"
	}
	return resp + "\nOK"
}

func (c *CommandDecoder) exec(line string) (string, error) {
	c.fields = appendFields(c.fields[:0], strings.ToUpper(line))
	fields := c.fields
	if len(fields) == 0 {
		return "", fmt.Errorf("empty command")
	}
	eng := c.dev.Engine(c.dir)
	switch fields[0] {
	case "DIR":
		if len(fields) != 2 {
			return "", fmt.Errorf("DIR needs L or R")
		}
		switch fields[1] {
		case "L":
			c.dir = LeftToRight
		case "R":
			c.dir = RightToLeft
		default:
			return "", fmt.Errorf("unknown direction %q", fields[1])
		}
		return "", nil

	case "MODE":
		if len(fields) != 2 {
			return "", fmt.Errorf("MODE needs ON, OFF or ONCE")
		}
		switch fields[1] {
		case "ON":
			eng.SetMatchMode(MatchOn)
		case "OFF":
			eng.SetMatchMode(MatchOff)
		case "ONCE":
			eng.SetMatchMode(MatchOnce)
		default:
			return "", fmt.Errorf("unknown mode %q", fields[1])
		}
		return "", nil

	case "COMPARE":
		if len(fields) != 1+WindowSize {
			return "", fmt.Errorf("COMPARE needs %d window entries", WindowSize)
		}
		cfg := eng.Config()
		for i, f := range fields[1:] {
			ch, mask, err := parseCompareEntry(f)
			if err != nil {
				return "", err
			}
			cfg.CompareData[i] = ch
			cfg.CompareMask[i] = mask
		}
		eng.Configure(cfg)
		return "", nil

	case "CORRUPT":
		if len(fields) != 2+WindowSize {
			return "", fmt.Errorf("CORRUPT needs a mode and %d entries", WindowSize)
		}
		cfg := eng.Config()
		switch fields[1] {
		case "TOGGLE":
			cfg.Corrupt = CorruptToggle
			for i, f := range fields[2:] {
				v, err := parseToggleEntry(f)
				if err != nil {
					return "", err
				}
				cfg.CorruptData[i] = v
				cfg.CorruptMask[i] = MaskFull
			}
		case "REPLACE":
			cfg.Corrupt = CorruptReplace
			for i, f := range fields[2:] {
				ch, mask, err := parseReplaceEntry(f)
				if err != nil {
					return "", err
				}
				cfg.CorruptData[i] = ch
				cfg.CorruptMask[i] = mask
			}
		default:
			return "", fmt.Errorf("unknown corrupt mode %q", fields[1])
		}
		eng.Configure(cfg)
		return "", nil

	case "CRC":
		if len(fields) != 2 {
			return "", fmt.Errorf("CRC needs ON or OFF")
		}
		cfg := eng.Config()
		switch fields[1] {
		case "ON":
			cfg.RecomputeCRC = true
		case "OFF":
			cfg.RecomputeCRC = false
		default:
			return "", fmt.Errorf("unknown CRC state %q", fields[1])
		}
		eng.Configure(cfg)
		return "", nil

	case "INJECT":
		eng.InjectNow()
		return "", nil

	case "STAT":
		chars, matches, inj := eng.Stats()
		return fmt.Sprintf("STAT dir=%v chars=%d matches=%d injections=%d rules=%d dropped=%d resets=%d",
			c.dir, chars, matches, inj, len(eng.Rules()), eng.DroppedChars(), eng.ResetsSeen()), nil

	case "RULE":
		return c.execRule(fields[1:], eng)

	case "CAP":
		events := eng.Capture().Events()
		var b strings.Builder
		fmt.Fprintf(&b, "CAP dir=%v events=%d", c.dir, len(events))
		for i, ev := range events {
			fmt.Fprintf(&b, "\nCAP[%d] pre=%d", i, ev.PreLen)
			for _, ch := range ev.Context {
				fmt.Fprintf(&b, " %v", ch)
			}
		}
		return b.String(), nil

	case "RESET":
		eng.Configure(Config{})
		eng.ClearRules()
		eng.Capture().Reset()
		return "", nil

	default:
		return "", fmt.Errorf("unknown command %q", fields[0])
	}
}

// appendFields appends the fields of s to dst, split around runs of white
// space exactly as strings.Fields splits them. dst grows once for a line
// whose fields are single-space separated.
func appendFields(dst []string, s string) []string {
	dst = slices.Grow(dst, strings.Count(s, " ")+1)
	start := -1
	for i, r := range s {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

func parseHexByte(s string) (byte, error) {
	v, err := strconv.ParseUint(s, 16, 8)
	if err != nil {
		return 0, fmt.Errorf("bad hex byte %q", s)
	}
	return byte(v), nil
}

// Entry prefixes are disambiguated by length: a plain data byte is exactly
// two hex digits ("0F"); prefixed forms ("C0F", "X0F", "!0F") are exactly
// three characters, so hex bytes whose first digit is C (e.g. "CC") stay
// unambiguous.
func parseCompareEntry(f string) (phy.Character, CharMask, error) {
	switch {
	case f == "--":
		return 0, MaskNone, nil
	case len(f) == 3 && f[0] == 'C':
		b, err := parseHexByte(f[1:])
		if err != nil {
			return 0, 0, err
		}
		return phy.ControlChar(b), MaskFull, nil
	case len(f) == 3 && f[0] == 'X':
		b, err := parseHexByte(f[1:])
		if err != nil {
			return 0, 0, err
		}
		return phy.DataChar(b), MaskData, nil
	case len(f) == 2:
		b, err := parseHexByte(f)
		if err != nil {
			return 0, 0, err
		}
		return phy.DataChar(b), MaskFull, nil
	default:
		return 0, 0, fmt.Errorf("bad compare entry %q", f)
	}
}

func parseToggleEntry(f string) (phy.Character, error) {
	switch {
	case f == "--":
		return 0, nil
	case len(f) == 3 && f[0] == '!':
		b, err := parseHexByte(f[1:])
		if err != nil {
			return 0, err
		}
		return phy.Character(0x100) | phy.Character(b), nil
	case len(f) == 2:
		b, err := parseHexByte(f)
		if err != nil {
			return 0, err
		}
		return phy.Character(b), nil
	default:
		return 0, fmt.Errorf("bad toggle entry %q", f)
	}
}

func parseReplaceEntry(f string) (phy.Character, CharMask, error) {
	switch {
	case f == "--":
		return 0, MaskNone, nil
	case len(f) == 3 && f[0] == 'C':
		b, err := parseHexByte(f[1:])
		if err != nil {
			return 0, 0, err
		}
		return phy.ControlChar(b), MaskFull, nil
	case len(f) == 3 && f[0] == 'X':
		// Replace the 8 data bits only, preserving the D/C flag — the
		// 32-bit datapath view, where a control symbol becomes another
		// control symbol and a data byte another data byte.
		b, err := parseHexByte(f[1:])
		if err != nil {
			return 0, 0, err
		}
		return phy.Character(b), MaskData, nil
	case len(f) == 2:
		b, err := parseHexByte(f)
		if err != nil {
			return 0, 0, err
		}
		return phy.DataChar(b), MaskFull, nil
	default:
		return 0, 0, fmt.Errorf("bad replace entry %q", f)
	}
}
