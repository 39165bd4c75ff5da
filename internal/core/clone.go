package core

import (
	"fmt"

	"netfi/internal/phy"
	"netfi/internal/rules"
	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). The injector's cloning rules:
//
//   - Compiled rule programs are immutable after Compile and are shared
//     across forks; only the Executor's run state copies.
//   - The injection hook (SetInjectionHook) is monitoring-owned: it is NOT
//     cloned, and a campaign that wants injection timestamps in the fork
//     re-registers it post-fork.
//   - A device port's downstream receiver resolves in the deferred pass —
//     it is whatever the cable delivered to before the splice, cloned by
//     the myrinet layer.

// Clone copies the capture ring: pre-trigger window, in-progress capture,
// and completed events.
func (r *CaptureRing) Clone() *CaptureRing {
	r2 := &CaptureRing{}
	*r2 = *r
	r2.pre = append([]phy.Character(nil), r.pre...)
	r2.snapshot = append([]phy.Character(nil), r.snapshot...)
	if len(r.events) > 0 {
		r2.events = make([]Capture, len(r.events))
		for i, ev := range r.events {
			r2.events[i] = Capture{
				Context: append([]phy.Character(nil), ev.Context...),
				PreLen:  ev.PreLen,
			}
		}
	} else {
		r2.events = nil
	}
	return r2
}

// Clone copies the pass-through packet monitor.
func (s *PacketStats) Clone() *PacketStats {
	s2 := &PacketStats{
		inPacket:       s.inPacket,
		buf:            append([]byte(nil), s.buf...),
		packets:        s.packets,
		controlPackets: s.controlPackets,
		pairs:          make(map[pairKey]uint64, len(s.pairs)),
	}
	for k, v := range s.pairs {
		s2.pairs[k] = v
	}
	return s2
}

// Clone forks one direction's engine: FIFO contents, compare register,
// rule-engine run state, CRC recompute state, batch plan, and statistics.
func (e *Engine) Clone(m *sim.Mapper) *Engine {
	e2 := &Engine{}
	*e2 = *e // cfg, geometry, window, flags, plan, counters
	e2.fifo = append([]fifoEntry(nil), e.fifo...)
	e2.ruleList = append([]rules.Rule(nil), e.ruleList...)
	if e.ruleExec != nil {
		e2.ruleExec = e.ruleExec.Clone()
	}
	e2.capture = e.capture.Clone()
	e2.procOut = nil
	e2.flushOut = nil
	e2.onInject = nil // monitoring hook: re-register post-fork
	m.Put(e, e2)
	return e2
}

// Clone forks the device: both engines, both pass-through monitors, and both
// splice ports with their constant-delay release state.
func (d *Device) Clone(m *sim.Mapper) *Device {
	d2 := &Device{k: m.Kernel(), pool: phy.PoolOf(m.Kernel()), cfg: d.cfg, inserted: d.inserted}
	m.Put(d, d2)
	for dir := 0; dir < 2; dir++ {
		d2.engines[dir] = d.engines[dir].Clone(m)
		d2.stats[dir] = d.stats[dir].Clone()
		p := d.ports[dir]
		p2 := &devicePort{
			dev:        d2,
			dir:        p.dir,
			lastEnd:    p.lastEnd,
			entries:    append([]sim.Time(nil), p.entries[p.head:]...),
			flushArmed: p.flushArmed,
			flushEvent: m.MapEventID(p.flushEvent),
		}
		m.Put(p, p2)
		d2.ports[dir] = p2
		if p.downstream != nil {
			p, p2 := p, p2
			m.Defer(func() error {
				v, ok := m.Lookup(p.downstream)
				if !ok {
					return fmt.Errorf("core: fork: device %s %v downstream %T not cloned", d.cfg.Name, p.dir, p.downstream)
				}
				p2.downstream = v.(phy.Receiver)
				return nil
			})
		}
	}
	return d2
}

// Clone forks the command decoder. The output sink is wiring-owned (the
// console rebinds it); the driven device resolves deferred.
func (c *CommandDecoder) Clone(m *sim.Mapper) *CommandDecoder {
	c2 := &CommandDecoder{
		dir:      c.dir,
		line:     append([]byte(nil), c.line...),
		commands: c.commands,
		errors:   c.errors,
	}
	m.Put(c, c2)
	m.Defer(func() error {
		v, ok := m.Lookup(c.dev)
		if !ok {
			return fmt.Errorf("core: fork: command decoder drives uncloned device %s", c.dev.Name())
		}
		c2.dev = v.(*Device)
		return nil
	})
	return c2
}
