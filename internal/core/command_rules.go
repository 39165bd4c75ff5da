package core

import (
	"fmt"
	"strconv"
	"strings"

	"netfi/internal/rules"
)

// The RULE command family programs the multi-rule trigger engine:
//
//	RULE ADD <id> [PRIO <p>] [MODE <m>] [ACT <a>] PAT <e...> [VEC <e...>]
//	RULE DEL <id>
//	RULE LIST
//	RULE CLEAR
//
// where
//
//	<m>   ON | OFF | ONCE | AFTER:<n> | WIN:<w>      (default ON)
//	<a>   CAP | TOGGLE | REPLACE | DROP[:<k>]        (default CAP)
//	PAT   compare entries (as COMPARE) plus gap tokens:
//	        G<n>  up to n arbitrary characters before the next entry
//	        G*    any number of arbitrary characters
//	VEC   corrupt vector, aligned to the newest characters (rightmost
//	      entry on the matching character): toggle entries for TOGGLE,
//	      replace entries for REPLACE; invalid for CAP and DROP
//
// Each keyword may appear at most once in a RULE ADD line. Adding a rule
// with an existing id replaces it in place; any change to the rule set
// recompiles and re-arms every rule. RULE LIST ends a vectored rule's line
// with its vector, one hex word per entry (data/mask for REPLACE).
func (c *CommandDecoder) execRule(fields []string, eng *Engine) (string, error) {
	if len(fields) == 0 {
		return "", fmt.Errorf("RULE needs ADD, DEL, LIST or CLEAR")
	}
	switch fields[0] {
	case "ADD":
		if err := parseRuleAdd(&c.rule, fields[1:]); err != nil {
			return "", err
		}
		if err := eng.AddRule(c.rule); err != nil {
			return "", err
		}
		return "", nil

	case "DEL":
		if len(fields) != 2 {
			return "", fmt.Errorf("RULE DEL needs an id")
		}
		id, err := parseRuleID(fields[1])
		if err != nil {
			return "", err
		}
		if !eng.DeleteRule(id) {
			return "", fmt.Errorf("no rule %d", id)
		}
		return "", nil

	case "LIST":
		var b strings.Builder
		rs := eng.Rules()
		if prog := eng.RuleProgram(); prog != nil {
			// states is the size of the automaton that runs: the DFA, or
			// the summed lanes past the state budget.
			st := prog.Stats()
			states := st.DFAStates
			if !prog.UsesDFA() {
				states = st.NFAStates
			}
			fmt.Fprintf(&b, "RULES dir=%v count=%d mode=%s states=%d", c.dir, st.Rules, st.Mode, states)
		} else {
			fmt.Fprintf(&b, "RULES dir=%v count=0", c.dir)
		}
		for i := range rs {
			m, f, _ := eng.RuleCounters(rs[i].ID)
			fmt.Fprintf(&b, "\nRULE[%d] prio=%d mode=%v act=%v steps=%d matches=%d fires=%d",
				rs[i].ID, rs[i].Priority, rs[i].Mode, rs[i].Action, len(rs[i].Steps), m, f)
			for j, v := range rs[i].CorruptData {
				sep := ","
				if j == 0 {
					sep = " vec="
				}
				fmt.Fprintf(&b, "%s%02X", sep, v)
				if j < len(rs[i].CorruptMask) {
					fmt.Fprintf(&b, "/%02X", rs[i].CorruptMask[j])
				}
			}
		}
		return b.String(), nil

	case "CLEAR":
		eng.ClearRules()
		return "", nil

	default:
		return "", fmt.Errorf("unknown RULE subcommand %q", fields[0])
	}
}

func parseRuleID(s string) (int, error) {
	id, err := strconv.Atoi(s)
	if err != nil || id < 0 {
		return 0, fmt.Errorf("bad rule id %q", s)
	}
	return id, nil
}

// parseRuleAdd assembles into r, refilling its slices, a rules.Rule from
// the keyword sections following RULE ADD. PAT is mandatory; VEC is
// mandatory exactly when the action needs a corrupt vector.
func parseRuleAdd(r *rules.Rule, fields []string) error {
	*r = rules.Rule{Mode: rules.ModeOn,
		Steps: r.Steps[:0], CorruptData: r.CorruptData[:0], CorruptMask: r.CorruptMask[:0]}
	if len(fields) == 0 {
		return fmt.Errorf("RULE ADD needs an id")
	}
	id, err := parseRuleID(fields[0])
	if err != nil {
		return err
	}
	r.ID = id
	fields = fields[1:]

	var pat, vec []string
	seen := make(map[string]bool, 5)
	for i := 0; i < len(fields); {
		kw := fields[i]
		if seen[kw] {
			return fmt.Errorf("repeated RULE ADD keyword %s", kw)
		}
		seen[kw] = true
		switch kw {
		case "PRIO":
			if i+1 >= len(fields) {
				return fmt.Errorf("PRIO needs a value")
			}
			p, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return fmt.Errorf("bad priority %q", fields[i+1])
			}
			r.Priority = p
			i += 2
		case "MODE":
			if i+1 >= len(fields) {
				return fmt.Errorf("MODE needs a value")
			}
			if err := parseRuleMode(r, fields[i+1]); err != nil {
				return err
			}
			i += 2
		case "ACT":
			if i+1 >= len(fields) {
				return fmt.Errorf("ACT needs a value")
			}
			if err := parseRuleAction(r, fields[i+1]); err != nil {
				return err
			}
			i += 2
		case "PAT", "VEC":
			j := i + 1
			for j < len(fields) && !isRuleKeyword(fields[j]) {
				j++
			}
			if kw == "PAT" {
				pat = fields[i+1 : j]
			} else {
				vec = fields[i+1 : j]
			}
			i = j
		default:
			return fmt.Errorf("unknown RULE ADD keyword %q", kw)
		}
	}

	if len(pat) == 0 {
		return fmt.Errorf("RULE ADD needs a PAT section")
	}
	if err := parseRulePattern(r, pat); err != nil {
		return err
	}
	if err := parseRuleVector(r, vec); err != nil {
		return err
	}
	return nil
}

func isRuleKeyword(f string) bool {
	switch f {
	case "PRIO", "MODE", "ACT", "PAT", "VEC":
		return true
	}
	return false
}

func parseRuleMode(r *rules.Rule, f string) error {
	switch {
	case f == "ON":
		r.Mode = rules.ModeOn
	case f == "OFF":
		r.Mode = rules.ModeOff
	case f == "ONCE":
		r.Mode = rules.ModeOnce
	case strings.HasPrefix(f, "AFTER:"), strings.HasPrefix(f, "WIN:"):
		kind, val, _ := strings.Cut(f, ":")
		n, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return fmt.Errorf("bad mode parameter %q", f)
		}
		if kind == "AFTER" {
			r.Mode = rules.ModeAfterN
		} else {
			r.Mode = rules.ModeWindow
		}
		r.N = n
	default:
		return fmt.Errorf("unknown rule mode %q", f)
	}
	return nil
}

func parseRuleAction(r *rules.Rule, f string) error {
	switch {
	case f == "CAP":
		r.Action = rules.ActionCapture
	case f == "TOGGLE":
		r.Action = rules.ActionToggle
	case f == "REPLACE":
		r.Action = rules.ActionReplace
	case f == "DROP":
		r.Action = rules.ActionDrop
		r.DropCount = 1
	case strings.HasPrefix(f, "DROP:"):
		k, err := strconv.Atoi(f[len("DROP:"):])
		if err != nil || k < 1 {
			return fmt.Errorf("bad drop count %q", f)
		}
		r.Action = rules.ActionDrop
		r.DropCount = k
	default:
		return fmt.Errorf("unknown rule action %q", f)
	}
	return nil
}

// parseRulePattern converts PAT tokens into steps. A gap token applies to
// the next compare entry; a trailing gap has nothing to attach to.
func parseRulePattern(r *rules.Rule, pat []string) error {
	gap := 0
	for _, f := range pat {
		if len(f) >= 2 && f[0] == 'G' {
			if gap != 0 {
				return fmt.Errorf("consecutive gap tokens before %q", f)
			}
			if f == "G*" {
				gap = rules.GapUnbounded
				continue
			}
			n, err := strconv.Atoi(f[1:])
			if err != nil || n < 1 {
				return fmt.Errorf("bad gap token %q", f)
			}
			gap = n
			continue
		}
		ch, mask, err := parseCompareEntry(f)
		if err != nil {
			return err
		}
		if len(r.Steps) == 0 && gap != 0 {
			return fmt.Errorf("gap before the first pattern entry")
		}
		r.Steps = append(r.Steps, rules.Step{Sym: uint16(ch), Mask: uint16(mask), Gap: gap})
		gap = 0
	}
	if gap != 0 {
		return fmt.Errorf("trailing gap token in PAT")
	}
	return nil
}

// parseRuleVector converts the VEC tokens for the vectored actions, and
// rejects a VEC on actions that take none.
func parseRuleVector(r *rules.Rule, vec []string) error {
	switch r.Action {
	case rules.ActionToggle:
		if len(vec) == 0 {
			return fmt.Errorf("TOGGLE needs a VEC section")
		}
		for _, f := range vec {
			v, err := parseToggleEntry(f)
			if err != nil {
				return err
			}
			r.CorruptData = append(r.CorruptData, uint16(v))
		}
	case rules.ActionReplace:
		if len(vec) == 0 {
			return fmt.Errorf("REPLACE needs a VEC section")
		}
		for _, f := range vec {
			ch, mask, err := parseReplaceEntry(f)
			if err != nil {
				return err
			}
			r.CorruptData = append(r.CorruptData, uint16(ch))
			r.CorruptMask = append(r.CorruptMask, uint16(mask))
		}
	default:
		if len(vec) != 0 {
			return fmt.Errorf("%v takes no VEC section", r.Action)
		}
	}
	return nil
}
