package core

import (
	"netfi/internal/phy"
	"netfi/internal/rules"
	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). A clone is a struct copy; what never
// crosses a fork is listed in the clone. The injector's rules:
//
//   - Compiled automata are immutable after Compile and are shared across
//     forks, as are the installed rules' steps. The installed rules' other
//     fields and vectors are bound into the fork's own program and the
//     Executor's run state copies, both in the fork's own rule store (the
//     executor storage, bound programs, edit scratch and memo of compiled
//     automata), which is the world's: a fork into a used world keeps its
//     own, a first fork starts without.
//   - The injection hook (SetInjectionHook) is monitoring-owned: it is NOT
//     cloned, and a campaign that wants injection timestamps in the fork
//     re-registers it post-fork.
//   - A device tap (SetTap) rebinds to the fork plane's copy of it, so the
//     plane must be cloned under the same mapper.
//   - Scratch buffers (the engine's batch outputs, a port's idle fill)
//     start empty in the fork; a fork into a used world keeps their
//     storage.
//   - A device port's downstream receiver rebinds at Finish — it is
//     whatever the cable delivered to before the splice, cloned by the
//     myrinet layer.

// cloneInto copies the capture ring — pre-trigger window, in-progress
// capture, and completed events — into r2, refilling r2's own storage.
func (r *CaptureRing) cloneInto(r2 *CaptureRing) {
	pre, snapshot, events := r2.pre, r2.snapshot, r2.events
	*r2 = *r
	r2.pre = append(pre[:0], r.pre...)
	r2.snapshot = append(snapshot[:0], r.snapshot...)
	r2.events = sim.Resize(events, len(r.events))
	for i, ev := range r.events {
		ev.Context = append(r2.events[i].Context[:0], ev.Context...)
		r2.events[i] = ev
	}
}

// Clone forks one direction's engine: FIFO contents, compare register,
// rule-engine run state, CRC recompute state, batch plan, and statistics.
func (e *Engine) Clone(m *sim.Mapper) *Engine {
	e2 := sim.Counterpart(m, e)
	fifo, store, capture := e2.fifo, e2.store, e2.capture
	procOut, flushOut := e2.procOut, e2.flushOut
	*e2 = *e
	e2.fifo = append(fifo[:0], e.fifo...)
	e2.store = store
	if e.ruleExec != nil { // nil disables the rule path
		s := e2.ruleStore()
		p := &s.progs[0]
		// Cannot fail: the rules are bound to that automaton already.
		_ = p.Bind(e.ruleProg, e.ruleProg.Rules())
		e2.ruleProg, e2.ruleExec = p, &s.exec
		e.ruleExec.CloneInto(e2.ruleExec, p)
	}
	if capture == nil {
		capture = new(CaptureRing)
	}
	e.capture.cloneInto(capture)
	e2.capture = capture
	e2.procOut, e2.flushOut = procOut[:0], flushOut[:0]
	e2.onInject = nil // monitoring hook: re-registered post-fork
	return e2
}

// Clone forks the device: both engines and both splice ports with their
// constant-delay release state (the live entries, compacted to the front).
// A tap rebinds to its counterpart in the fork's monitoring plane.
func (d *Device) Clone(m *sim.Mapper) *Device {
	d2 := sim.Counterpart(m, d)
	*d2 = *d
	d2.k, d2.pool = m.Kernel(), phy.PoolOf(m.Kernel())
	for dir, p := range d.ports {
		d2.engines[dir] = d.engines[dir].Clone(m)
		if t := d.taps[dir]; t != nil {
			sim.Rebind(m, &d2.taps[dir], t)
		}
		p2 := sim.Counterpart(m, p)
		entries, fillBuf := p2.entries, p2.fillBuf
		*p2 = *p
		p2.dev = d2
		p2.entries, p2.head = append(entries[:0], p.entries[p.head:]...), 0
		p.flush.CloneInto(m, &p2.flush, p2)
		p2.fillBuf = fillBuf[:0]
		d2.ports[dir] = p2
		if p.downstream != nil {
			sim.Rebind(m, &p2.downstream, p.downstream)
		}
	}
	return d2
}

// Clone forks the command decoder. The output sink is wiring-owned (the
// console rebinds it); the driven device rebinds at Finish. The parse
// scratch holds nothing between commands: the fork keeps its own, emptied.
func (c *CommandDecoder) Clone(m *sim.Mapper) *CommandDecoder {
	c2 := sim.Counterpart(m, c)
	line, fields, rule := c2.line, c2.fields, c2.rule
	*c2 = *c
	c2.line = append(line[:0], c.line...)
	c2.fields = fields[:0]
	c2.rule = rules.Rule{Steps: rule.Steps[:0], CorruptData: rule.CorruptData[:0], CorruptMask: rule.CorruptMask[:0]}
	c2.out = nil
	sim.Rebind(m, &c2.dev, c.dev)
	return c2
}
