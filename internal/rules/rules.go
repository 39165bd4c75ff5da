// Package rules generalizes the injector's single compare-data/don't-care
// register pair (DESIGN §2, internal/core) into a programmable multi-rule
// trigger engine: many simultaneous patterns compiled into one automaton and
// evaluated per 9-bit link symbol at line rate, the way line-rate DPI taps
// compile rule sets into nondeterministic automata on the FPGA fabric.
//
// A Rule is a sequence of (compare symbol, don't-care mask) steps with
// optional gap wildcards between steps, an action (capture-only, toggle,
// replace, drop), a trigger mode (on/off/once/after-N/within-window) and a
// priority for conflict resolution when several rules fire on the same
// symbol. Compile lowers a rule set into a flat DFA transition table by
// subset construction under a fixed state budget; when the DFA would
// blow past the budget it falls back to per-rule NFA lanes (one bitset-
// simulated automaton per rule). Executor runs either form with zero
// allocations in the per-symbol hot path.
//
// The package is deliberately free of any dependency on the datapath: it
// matches on bare 9-bit symbols (the Myrinet D/C flag plus 8 data bits, as
// seen on the FPGA's parallel interface) and reports which rules fired;
// applying the corrupt vectors to the FIFO is internal/core's job.
package rules

import (
	"encoding/binary"
	"fmt"
)

// Symbol geometry: Myrinet link characters are 9 bits wide (D/C flag +
// byte), so the automaton alphabet has 512 symbols.
const (
	SymbolBits  = 9
	SymbolSpace = 1 << SymbolBits
	SymbolMask  = SymbolSpace - 1
)

// Engine limits. MaxRules is bounded by the uint64 fire bitmask; the
// per-rule NFA must fit a 64-bit lane bitset.
const (
	MaxRules      = 64
	MaxSteps      = 16
	MaxGap        = 32
	MaxCorrupt    = 8
	maxRuleStates = 64
)

// GapUnbounded, as a Step.Gap value, allows any number of arbitrary symbols
// before the step.
const GapUnbounded = -1

// Step is one position of a rule's compare sequence: the symbol must satisfy
// (sym ^ Sym) & Mask == 0. A zero Mask is a single-symbol wildcard. Gap
// admits up to Gap arbitrary symbols (GapUnbounded: any number) between the
// previous step's symbol and this one; it must be zero on the first step,
// where it would be meaningless — matching is unanchored in the stream.
type Step struct {
	Sym  uint16
	Mask uint16
	Gap  int
}

// Action selects what the datapath does when the rule fires.
type Action int

// Actions. Capture only marks the capture ring and counts; Toggle flips the
// corrupt-data bits in the matched window tail; Replace substitutes
// corrupt-data bits under the corrupt mask; Drop deletes characters from the
// retransmitted stream.
const (
	ActionCapture Action = iota
	ActionToggle
	ActionReplace
	ActionDrop
)

// String returns the action mnemonic (the serial command language token).
func (a Action) String() string {
	switch a {
	case ActionToggle:
		return "TOGGLE"
	case ActionReplace:
		return "REPLACE"
	case ActionDrop:
		return "DROP"
	default:
		return "CAP"
	}
}

// Mode gates a rule's trigger, extending the paper's on/off/once match modes
// with counted and windowed arming.
type Mode int

// Modes. ModeAfterN skips the first N matches and fires on every subsequent
// one; ModeWindow fires only on matches within the first N symbols after the
// executor is (re-)armed.
const (
	ModeOff Mode = iota
	ModeOn
	ModeOnce
	ModeAfterN
	ModeWindow
)

// String returns the mode mnemonic.
func (m Mode) String() string {
	switch m {
	case ModeOn:
		return "ON"
	case ModeOnce:
		return "ONCE"
	case ModeAfterN:
		return "AFTER"
	case ModeWindow:
		return "WIN"
	default:
		return "OFF"
	}
}

// Rule is one trigger: a step sequence, a gated action, and the corrupt
// vectors the datapath applies to the stream tail when the rule fires.
type Rule struct {
	// ID names the rule in the serial command language and statistics.
	ID int
	// Priority resolves conflicts when several corrupting rules fire on
	// the same symbol: corruptions apply in ascending priority, so the
	// highest-priority rule's bytes land last and win.
	Priority int
	// Mode gates the trigger; N parameterizes ModeAfterN (matches to
	// skip) and ModeWindow (armed-window length in symbols).
	Mode Mode
	N    uint64
	// Action selects the datapath effect.
	Action Action
	// Steps is the compare sequence, oldest first.
	Steps []Step
	// CorruptData/CorruptMask are the error vectors for Toggle and
	// Replace, applied to the newest len(CorruptData) stream characters
	// at match time, rightmost entry on the matching character. Toggle
	// ignores CorruptMask.
	CorruptData []uint16
	CorruptMask []uint16
	// DropCount is the number of trailing characters Drop deletes.
	DropCount int
}

// nfaSize is the rule's NFA state count: a start state plus, per step, its
// bounded-gap chain and a post state.
func (r *Rule) nfaSize() int {
	n := 1
	for _, s := range r.Steps {
		n++
		if s.Gap > 0 {
			n += s.Gap
		}
	}
	return n
}

// Validate checks the rule against the engine limits.
func (r *Rule) Validate() error {
	if len(r.Steps) == 0 {
		return fmt.Errorf("rules: rule %d has no steps", r.ID)
	}
	if len(r.Steps) > MaxSteps {
		return fmt.Errorf("rules: rule %d has %d steps, max %d", r.ID, len(r.Steps), MaxSteps)
	}
	for i, s := range r.Steps {
		if s.Sym > SymbolMask || s.Mask > SymbolMask {
			return fmt.Errorf("rules: rule %d step %d outside the %d-bit symbol space", r.ID, i, SymbolBits)
		}
		if s.Gap != GapUnbounded && (s.Gap < 0 || s.Gap > MaxGap) {
			return fmt.Errorf("rules: rule %d step %d gap %d outside 0..%d", r.ID, i, s.Gap, MaxGap)
		}
		if i == 0 && s.Gap != 0 {
			return fmt.Errorf("rules: rule %d has a gap before its first step", r.ID)
		}
	}
	if n := r.nfaSize(); n > maxRuleStates {
		return fmt.Errorf("rules: rule %d expands to %d NFA states, max %d", r.ID, n, maxRuleStates)
	}
	switch r.Action {
	case ActionCapture:
	case ActionToggle:
		if len(r.CorruptData) == 0 || len(r.CorruptData) > MaxCorrupt {
			return fmt.Errorf("rules: rule %d toggle vector length %d outside 1..%d", r.ID, len(r.CorruptData), MaxCorrupt)
		}
	case ActionReplace:
		if len(r.CorruptData) == 0 || len(r.CorruptData) > MaxCorrupt {
			return fmt.Errorf("rules: rule %d replace vector length %d outside 1..%d", r.ID, len(r.CorruptData), MaxCorrupt)
		}
		if len(r.CorruptMask) != len(r.CorruptData) {
			return fmt.Errorf("rules: rule %d replace mask length %d != data length %d", r.ID, len(r.CorruptMask), len(r.CorruptData))
		}
	case ActionDrop:
		if r.DropCount < 1 || r.DropCount > MaxCorrupt {
			return fmt.Errorf("rules: rule %d drop count %d outside 1..%d", r.ID, r.DropCount, MaxCorrupt)
		}
	default:
		return fmt.Errorf("rules: rule %d has unknown action %d", r.ID, r.Action)
	}
	switch r.Mode {
	case ModeOff, ModeOn, ModeOnce, ModeAfterN, ModeWindow:
	default:
		return fmt.Errorf("rules: rule %d has unknown mode %d", r.ID, r.Mode)
	}
	return nil
}

// AppendStepKey appends the encoding of r's steps to b, their count first:
// a rule list's concatenated keys are equal exactly when the lists' steps
// are, rule by rule, so they name the automaton Compile builds of it.
func (r *Rule) AppendStepKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Steps)))
	for _, s := range r.Steps {
		b = binary.AppendVarint(binary.AppendUvarint(binary.AppendUvarint(b, uint64(s.Sym)), uint64(s.Mask)), int64(s.Gap))
	}
	return b
}
