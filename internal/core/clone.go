package core

import (
	"netfi/internal/phy"
	"netfi/internal/rules"
	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). A clone is a struct copy; what never
// crosses a fork is listed in the clone. The injector's rules:
//
//   - Compiled rule programs are immutable after Compile and are shared
//     across forks, as are the installed rules' patterns; only the
//     Executor's run state copies.
//   - The injection hook (SetInjectionHook) is monitoring-owned: it is NOT
//     cloned, and a campaign that wants injection timestamps in the fork
//     re-registers it post-fork.
//   - A device tap (SetTap) rebinds to the fork plane's copy of it, so the
//     plane must be cloned under the same mapper.
//   - Scratch buffers (the engine's batch outputs, a port's idle fill)
//     start empty in the fork.
//   - A device port's downstream receiver rebinds at Finish — it is
//     whatever the cable delivered to before the splice, cloned by the
//     myrinet layer.

// Clone copies the capture ring: pre-trigger window, in-progress capture,
// and completed events.
func (r *CaptureRing) Clone() *CaptureRing {
	r2 := new(CaptureRing)
	*r2 = *r
	r2.pre = append([]phy.Character(nil), r.pre...)
	r2.snapshot = append([]phy.Character(nil), r.snapshot...)
	r2.events = nil
	if len(r.events) > 0 {
		r2.events = make([]Capture, len(r.events))
		for i, ev := range r.events {
			ev.Context = append([]phy.Character(nil), ev.Context...)
			r2.events[i] = ev
		}
	}
	return r2
}

// Clone forks one direction's engine: FIFO contents, compare register,
// rule-engine run state, CRC recompute state, batch plan, and statistics.
func (e *Engine) Clone(m *sim.Mapper) *Engine {
	e2 := new(Engine)
	*e2 = *e
	e2.fifo = append([]fifoEntry(nil), e.fifo...)
	e2.ruleList = append([]rules.Rule(nil), e.ruleList...)
	if e.ruleExec != nil {
		e2.ruleExec = e.ruleExec.Clone()
	}
	e2.capture = e.capture.Clone()
	e2.procOut, e2.flushOut = nil, nil
	e2.onInject = nil // monitoring hook: re-registered post-fork
	m.Put(e, e2)
	return e2
}

// Clone forks the device: both engines and both splice ports with their
// constant-delay release state (the live entries, compacted to the front).
// A tap rebinds to its counterpart in the fork's monitoring plane.
func (d *Device) Clone(m *sim.Mapper) *Device {
	d2 := new(Device)
	*d2 = *d
	d2.k, d2.pool = m.Kernel(), phy.PoolOf(m.Kernel())
	m.Put(d, d2)
	for dir, p := range d.ports {
		d2.engines[dir] = d.engines[dir].Clone(m)
		if t := d.taps[dir]; t != nil {
			sim.Rebind(m, &d2.taps[dir], t)
		}
		p2 := new(devicePort)
		*p2 = *p
		p2.dev = d2
		p2.entries, p2.head = append([]sim.Time(nil), p.entries[p.head:]...), 0
		p.flush.CloneInto(m, &p2.flush, p2)
		p2.fillBuf = nil
		m.Put(p, p2)
		d2.ports[dir] = p2
		if p.downstream != nil {
			sim.Rebind(m, &p2.downstream, p.downstream)
		}
	}
	return d2
}

// Clone forks the command decoder. The output sink is wiring-owned (the
// console rebinds it); the driven device rebinds at Finish.
func (c *CommandDecoder) Clone(m *sim.Mapper) *CommandDecoder {
	c2 := new(CommandDecoder)
	*c2 = *c
	c2.line = append([]byte(nil), c.line...)
	c2.out = nil
	m.Put(c, c2)
	sim.Rebind(m, &c2.dev, c.dev)
	return c2
}
