package core

import (
	"fmt"
	"math/bits"

	"netfi/internal/phy"
	"netfi/internal/rules"
)

// This file is the bridge between the programmable rule engine
// (internal/rules) and the FIFO datapath: rule management (the RULE command
// family lands here) and the application of fired rules' corrupt vectors to
// the queued stream tail.
//
// Vector alignment: a fired rule's corrupt vector (or drop count) applies to
// the newest len(vector) characters of the stream — rightmost vector entry
// on the character that completed the match — so a one-entry vector hits
// exactly the matching character, like the legacy single-pattern corrupt
// hits its own compare window. Vectors are therefore bounded by WindowSize:
// older characters have left the compare register and their FIFO slots are
// no longer addressable, exactly as in the hardware.

// ruleStore is the storage an engine arms its rule path in: the executor
// every installed program is loaded into, the two programs a rule change
// binds into in turn (the one not installed), the list a change is built
// in, the key scratch, and the memo of compiled automata. It belongs to the
// engine's world and is made on first use: a fork keeps its own, never the
// base's.
type ruleStore struct {
	exec  rules.Executor
	progs [2]rules.Program
	edit  []rules.Rule
	key   []byte
	sets  []compiledSet
}

// compiledSet is one memo entry: a rule list's step key (its rules'
// AppendStepKey encodings, concatenated) and the program Compile made of
// it, whose automaton every list with those steps is bound to.
type compiledSet struct {
	key  string
	prog *rules.Program
}

// maxPrograms bounds an engine's memo. A sweep arms a few distinct
// patterns often, each with many vectors, actions and modes, and a long
// tail of patterns once; a full memo starts over rather than growing with
// the tail.
const maxPrograms = 64

// ruleStore returns the engine's rule store, making it on first use.
func (e *Engine) ruleStore() *ruleStore {
	if e.store == nil {
		e.store = new(ruleStore)
	}
	return e.store
}

// AddRule validates r against both the rule-engine limits and the datapath
// window, recompiles the rule set with r added (replacing any existing rule
// with the same ID, preserving its position), and installs the result.
// Recompiling re-arms every rule: counters, once latches and window clocks
// restart, as reloading the hardware's rule memory would. The engine keeps
// none of r's storage: its vectors are copied into the engine's own.
func (e *Engine) AddRule(r rules.Rule) error {
	if len(r.CorruptData) > WindowSize {
		return fmt.Errorf("core: rule %d corrupt vector length %d exceeds window size %d", r.ID, len(r.CorruptData), WindowSize)
	}
	if r.Action == rules.ActionDrop && r.DropCount > WindowSize {
		return fmt.Errorf("core: rule %d drop count %d exceeds window size %d", r.ID, r.DropCount, WindowSize)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	list := e.ruleStore().edit[:0]
	replaced := false
	for _, old := range e.Rules() {
		if old.ID == r.ID {
			old, replaced = r, true
		}
		list = append(list, old)
	}
	if !replaced {
		list = append(list, r)
	}
	return e.setRules(list)
}

// DeleteRule removes the rule with the given ID, reporting whether it
// existed. The remaining set is recompiled and re-armed.
func (e *Engine) DeleteRule(id int) bool {
	list := e.ruleStore().edit[:0]
	for _, r := range e.Rules() {
		if r.ID != id {
			list = append(list, r)
		}
	}
	switch {
	case len(list) == len(e.Rules()):
		return false
	case len(list) == 0:
		e.installRules(nil)
		return true
	}
	// Cannot fail: every rule in the subset already compiled.
	return e.setRules(list) == nil
}

// setRules compiles list, built in the store's edit storage, and installs
// it. A list whose steps the memo has not seen is compiled, and the program
// Compile returns is both the one installed and the memo's. Otherwise the
// automaton comes from the memo, so a change to vectors, actions, modes or
// priorities only binds: the list is copied into the store's program that
// is not installed, and a memo hit allocates nothing.
func (e *Engine) setRules(list []rules.Rule) error {
	s := e.store
	s.edit = list
	s.key = s.key[:0]
	for i := range list {
		s.key = list[i].AppendStepKey(s.key)
	}
	var src *rules.Program
	for _, c := range s.sets {
		if c.key == string(s.key) {
			src = c.prog
			break
		}
	}
	if src == nil {
		p, err := rules.Compile(list, rules.Options{})
		if err != nil {
			return err
		}
		if len(s.sets) == maxPrograms {
			clear(s.sets)
			s.sets = s.sets[:0]
		}
		s.sets = append(s.sets, compiledSet{string(s.key), p})
		e.installRules(p)
		return nil
	}
	next := &s.progs[0]
	if e.ruleProg == next {
		next = &s.progs[1]
	}
	if err := next.Bind(src, list); err != nil {
		return err
	}
	e.installRules(next)
	return nil
}

// ClearRules removes the whole rule set, disabling the rule-engine path.
func (e *Engine) ClearRules() { e.installRules(nil) }

// Rules returns the installed rule set in evaluation order: the installed
// program's own copies. Read-only, and valid until the next rule change.
func (e *Engine) Rules() []rules.Rule {
	if e.ruleProg == nil {
		return nil
	}
	return e.ruleProg.Rules()
}

// RuleProgram returns the installed program, nil when no rules are
// installed. Valid until the next rule change.
func (e *Engine) RuleProgram() *rules.Program { return e.ruleProg }

// RuleCounters reports the match and (mode-gated) fire counters of the rule
// with the given ID.
func (e *Engine) RuleCounters(id int) (matches, fires uint64, ok bool) {
	if e.ruleExec == nil {
		return 0, 0, false
	}
	for i, r := range e.Rules() {
		if r.ID == id {
			m, f := e.ruleExec.Counters(i)
			return m, f, true
		}
	}
	return 0, 0, false
}

// SetRuleProgram installs an externally compiled program directly, bypassing
// the per-rule AddRule path — the campaign and benchmark entry point. The
// program's rules must respect the WindowSize vector bound; nil uninstalls.
// The engine shares p and never binds into it.
func (e *Engine) SetRuleProgram(p *rules.Program) { e.installRules(p) }

// installRules swaps in prog (nil: no rules) and re-arms the store's
// executor on it in place.
func (e *Engine) installRules(prog *rules.Program) {
	e.ruleProg, e.ruleExec = prog, nil
	if prog != nil {
		x := &e.ruleStore().exec
		x.Load(prog)
		e.ruleExec = x
	}
	e.batchDirty = true
}

// applyRuleActions applies the fired rules' datapath effects. Corruptions
// are applied in ascending priority so the highest-priority rule's bytes
// land last and win conflicts on the same character; one capture mark and
// one injection are counted per clock cycle that changed the stream,
// however many rules fired together.
func (e *Engine) applyRuleActions(fired uint64) {
	var order [rules.MaxRules]int
	n := 0
	for set := fired; set != 0; set &= set - 1 {
		order[n] = bits.TrailingZeros64(set)
		n++
	}
	rs := e.ruleProg.Rules()
	for i := 1; i < n; i++ {
		for j := i; j > 0 && rs[order[j]].Priority < rs[order[j-1]].Priority; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	injected := false
	for k := 0; k < n; k++ {
		r := &rs[order[k]]
		switch r.Action {
		case rules.ActionCapture:
			// Counted by the executor; the capture ring is marked below
			// only when the stream actually changed, so a capture-only
			// rule observes without perturbing.
		case rules.ActionToggle, rules.ActionReplace:
			l := len(r.CorruptData)
			for v := 0; v < l; v++ {
				w := e.window[WindowSize-l+v]
				if w.pos < 0 {
					continue // idle fill: nothing queued to hit
				}
				entry := &e.fifo[w.pos]
				orig := entry.ch
				if r.Action == rules.ActionToggle {
					entry.ch = orig ^ phy.Character(r.CorruptData[v])&phy.Character(MaskFull)
				} else {
					m := phy.Character(r.CorruptMask[v])
					entry.ch = orig&^m | phy.Character(r.CorruptData[v])&m
				}
				if entry.ch != orig {
					if !entry.corrupted && !entry.dropped {
						e.taint++
					}
					entry.corrupted = true
					injected = true
				}
			}
		case rules.ActionDrop:
			for v := 0; v < r.DropCount; v++ {
				w := e.window[WindowSize-1-v]
				if w.pos < 0 {
					continue
				}
				entry := &e.fifo[w.pos]
				if !entry.dropped {
					if !entry.corrupted {
						e.taint++
					}
					entry.dropped = true
					e.dropped++
					injected = true
				}
			}
		}
	}
	if injected {
		e.injections++
		e.capture.MarkInjection()
		if e.onInject != nil {
			e.onInject()
		}
	}
}
