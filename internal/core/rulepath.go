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
// every installed program is loaded into, the list a rule change is built
// in, the key scratch, and the memo of compiled rule sets. It belongs to the
// engine's world and is made on first use: a fork keeps its own, never the
// base's.
type ruleStore struct {
	exec rules.Executor
	edit []rules.Rule
	key  []byte
	sets []compiledSet
}

// compiledSet is one memo entry: a rule list's canonical key (its rules'
// AppendKey encodings, concatenated) and the program Compile made of it.
type compiledSet struct {
	key  string
	prog *rules.Program
}

// maxPrograms bounds an engine's memo. A sweep arms a few dozen distinct
// rule sets often and a long tail once; a full memo starts over rather
// than growing with the tail.
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
// none of r's storage.
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
	for _, old := range e.ruleList {
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
	for _, r := range e.ruleList {
		if r.ID != id {
			list = append(list, r)
		}
	}
	switch {
	case len(list) == len(e.ruleList):
		return false
	case len(list) == 0:
		e.installRules(e.ruleList[:0], nil)
		return true
	}
	// Cannot fail: every rule in the subset already compiled.
	return e.setRules(list) == nil
}

// setRules compiles list, built in the store's edit storage, and installs
// it. A rule set the engine compiled before comes from its memo: a Program
// is immutable after Compile, so every install of the set shares it. The
// installed list then holds the program's own copies of the rules, and the
// storage of the list it replaces becomes the next edit's.
func (e *Engine) setRules(list []rules.Rule) error {
	s := e.store
	s.edit = list
	s.key = s.key[:0]
	for i := range list {
		s.key = list[i].AppendKey(s.key)
	}
	var prog *rules.Program
	for _, c := range s.sets {
		if c.key == string(s.key) {
			prog = c.prog
			break
		}
	}
	if prog == nil {
		var err error
		if prog, err = rules.Compile(list, rules.Options{}); err != nil {
			return err
		}
		if len(s.sets) == maxPrograms {
			clear(s.sets)
			s.sets = s.sets[:0]
		}
		s.sets = append(s.sets, compiledSet{string(s.key), prog})
	}
	copy(list, prog.Rules())
	s.edit = e.ruleList[:0]
	e.installRules(list, prog)
	return nil
}

// ClearRules removes the whole rule set, disabling the rule-engine path.
func (e *Engine) ClearRules() { e.installRules(e.ruleList[:0], nil) }

// Rules returns the installed rule set in evaluation order: the compiled
// program's own copies. Read-only, and valid until the next rule change.
func (e *Engine) Rules() []rules.Rule { return e.ruleList }

// RuleProgram returns the compiled program, nil when no rules are installed.
func (e *Engine) RuleProgram() *rules.Program { return e.ruleProg }

// RuleCounters reports the match and (mode-gated) fire counters of the rule
// with the given ID.
func (e *Engine) RuleCounters(id int) (matches, fires uint64, ok bool) {
	if e.ruleExec == nil {
		return 0, 0, false
	}
	for i := range e.ruleList {
		if e.ruleList[i].ID == id {
			m, f := e.ruleExec.Counters(i)
			return m, f, true
		}
	}
	return 0, 0, false
}

// SetRuleProgram installs an externally compiled program directly, bypassing
// the per-rule AddRule path — the campaign and benchmark entry point. The
// program's rules must respect the WindowSize vector bound; nil uninstalls.
func (e *Engine) SetRuleProgram(p *rules.Program) {
	if p == nil {
		e.ClearRules()
		return
	}
	e.installRules(append(e.ruleList[:0], p.Rules()...), p)
}

// installRules swaps in list, compiled as prog (nil: no rules), and re-arms
// the store's executor on it in place.
func (e *Engine) installRules(list []rules.Rule, prog *rules.Program) {
	e.ruleList, e.ruleProg, e.ruleExec = list, prog, nil
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
	for i := 1; i < n; i++ {
		for j := i; j > 0 && e.ruleList[order[j]].Priority < e.ruleList[order[j-1]].Priority; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	injected := false
	for k := 0; k < n; k++ {
		r := &e.ruleList[order[k]]
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
