package core

import (
	"fmt"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Direction selects one of the device's two independent injection paths
// (§3.3: "the architecture supports bi-directional fault injection", with
// different and independent commands per direction).
type Direction int

// Directions, named after the paper's "left going" and "right going" data.
const (
	// LeftToRight corrupts data flowing from the left splice end to the
	// right.
	LeftToRight Direction = iota
	// RightToLeft corrupts data flowing the other way.
	RightToLeft
)

// String returns "L2R" or "R2L".
func (d Direction) String() string {
	if d == RightToLeft {
		return "R2L"
	}
	return "L2R"
}

// DeviceConfig parameterizes the injector hardware model.
type DeviceConfig struct {
	// Name labels the device.
	Name string
	// CharPeriod is the line character period used to convert the
	// pipeline depth into latency; zero selects 12.5 ns (Myrinet at
	// 80 MB/s).
	CharPeriod sim.Duration
	// ExtraLatency models the transceiver (PHY chip) delay on top of
	// the FIFO pipeline.
	ExtraLatency sim.Duration
	// IdleChar is the character idle fill pushes through the pipeline
	// when the wire is quiet between bursts (real hardware clocks
	// continuously; the burst model synthesizes the idles). The zero
	// value is the Myrinet IDLE control character; Fibre Channel splices
	// should use a neutral data code group the far port ignores.
	IdleChar phy.Character
}

// Device is the assembled fault injector: two FIFO-injector engines (one
// per direction), a monitoring tap point per direction, and the insertion
// plumbing that splices the device into a live cable. Command-level control
// (the serial path) lives in CommandDecoder, which drives this device.
//
// The zero value is not usable; construct with NewDevice.
type Device struct {
	k    *sim.Kernel
	pool *phy.Pool // k's burst pool: releases inbound bursts, feeds outbound ones
	cfg  DeviceConfig

	engines [2]*Engine
	taps    [2]phy.Tap // nil unless a monitor attached one
	ports   [2]*devicePort

	inserted bool
}

// devicePort is one direction's receive side: it clocks the engine and
// forwards the released characters downstream after the pipeline latency.
type devicePort struct {
	dev        *Device
	dir        Direction
	downstream phy.Receiver

	lastEnd sim.Time // when the previous burst finished arriving
	// entries holds the wire entry time of every character still inside
	// the engine's FIFO (parallel to it), so released characters leave
	// at exactly entry + pipeline latency — the constant-delay behaviour
	// of the continuously clocked hardware. Without it, batched pops
	// would time-compress flow-control symbols and falsely trip the
	// remote's 16-character short timeout. entries[head:] is the live
	// queue; the consumed prefix is reclaimed once it passes half the
	// slice, so continuous traffic appends into the same backing array.
	entries []sim.Time
	head    int
	// flush drains the pipeline once the link has been quiet for one
	// pipeline time (armFlush).
	flush sim.Timer

	fillBuf []phy.Character // reused idle-fill scratch
}

// NewDevice builds an injector.
func NewDevice(k *sim.Kernel, cfg DeviceConfig) *Device {
	if cfg.CharPeriod == 0 {
		cfg.CharPeriod = 12_500 * sim.Picosecond
	}
	d := &Device{k: k, pool: phy.PoolOf(k), cfg: cfg}
	for dir := 0; dir < 2; dir++ {
		d.engines[dir] = NewEngine(DefaultSlackChars)
		p := &devicePort{dev: d, dir: Direction(dir)}
		p.flush.Init(k, DefaultSlackChars*cfg.CharPeriod, portFlush, p)
		d.ports[dir] = p
	}
	return d
}

// Name returns the device's label.
func (d *Device) Name() string { return d.cfg.Name }

// Engine returns the injection engine for one direction.
func (d *Device) Engine(dir Direction) *Engine { return d.engines[dir] }

// SetTap installs (or, with nil, removes) a tap on one direction's input
// stream, ahead of the engine. A monitor.Tap with flows armed here is the
// board's in-path statistics gathering (§3.2): counters per
// source/destination identifier pair.
func (d *Device) SetTap(dir Direction, t phy.Tap) { d.taps[dir] = t }

// Latency reports the fixed delay the device adds to each direction.
func (d *Device) Latency() sim.Duration {
	return DefaultSlackChars*d.cfg.CharPeriod + d.cfg.ExtraLatency
}

// Insert splices the device into a full-duplex cable: characters that used
// to flow directly now pass through the injection engines, with the
// device's pipeline latency added. The cable's left-to-right direction maps
// to the LeftToRight engine.
func (d *Device) Insert(cable *phy.Cable) {
	if d.inserted {
		panic(fmt.Sprintf("core: device %s already inserted", d.cfg.Name))
	}
	d.inserted = true
	d.ports[LeftToRight].downstream = cable.LeftToRight.Dst()
	cable.LeftToRight.SetDst(d.ports[LeftToRight])
	d.ports[RightToLeft].downstream = cable.RightToLeft.Dst()
	cable.RightToLeft.SetDst(d.ports[RightToLeft])
}

// Receive implements phy.Receiver for one direction.
func (p *devicePort) Receive(chars []phy.Character) {
	d := p.dev
	eng := d.engines[p.dir]
	period := d.cfg.CharPeriod
	now := d.k.Now()
	// Idle fill: if the wire was quiet before this burst started, the
	// continuously clocked pipeline pushed idles through, releasing the
	// held-back characters at line rate.
	start := now - sim.Duration(len(chars))*period
	if eng.Pending() > 0 && start > p.lastEnd {
		if idle := int((start - p.lastEnd) / period); idle > 0 {
			if cap(p.fillBuf) < idle {
				p.fillBuf = make([]phy.Character, idle)
			}
			fill := p.fillBuf[:idle]
			for i := range fill {
				fill[i] = d.cfg.IdleChar
				p.entries = append(p.entries, p.lastEnd+sim.Duration(i+1)*period)
			}
			p.deliver(eng.ProcessBatch(fill))
		}
	}
	if now > p.lastEnd {
		p.lastEnd = now
	}
	if t := d.taps[p.dir]; t != nil {
		t.ObserveChars(now, chars)
	}
	for i := range chars {
		p.entries = append(p.entries, start+sim.Duration(i+1)*period)
	}
	p.deliver(eng.ProcessBatch(chars))
	p.armFlush()
	d.pool.Release(chars)
}

// deliver schedules released characters downstream at entry time plus the
// pipeline latency. Runs of data characters batch into one delivery at the
// run's end (receivers are rate-agnostic within a packet). Every other
// control symbol — STOP, GO, GAP, RESET, unknown codes — leaves at exactly
// its exit time as the last character of its delivery, so flow-control
// timing (STOP refresh spacing against the remote short timeout) survives
// the burst model. A run of the idle character, when that is a control
// character (Myrinet IDLE), rides with the delivery of the character after
// it, or leaves at its own last exit time when nothing follows it in out:
// receivers take no action on IDLE, so only the kernel's event count and a
// tap's burst count see the split. An idle that is a data character (the Fibre Channel
// splice's neutral code group) batches as data.
func (p *devicePort) deliver(out []phy.Character) {
	if len(out) == 0 {
		return
	}
	latency := p.dev.Latency()
	now := p.dev.k.Now()
	dst := p.downstream
	pool := p.dev.pool
	idle := p.dev.cfg.IdleChar
	idleRides := !idle.IsData()
	// out is the engine's scratch buffer, so each batch is copied into a
	// pooled burst of its own before it enters the event queue.
	for i := 0; i < len(out); {
		j := i
		for idleRides && j < len(out) && out[j] == idle {
			j++
		}
		if j < len(out) {
			j++
			if out[j-1].IsData() {
				for j < len(out) && out[j].IsData() {
					j++
				}
			}
		}
		at := p.entries[p.head+j-1] + latency
		if at < now {
			at = now
		}
		batch := pool.Get(j - i)
		copy(batch, out[i:j])
		pool.ScheduleReceive(at, dst, batch)
		i = j
	}
	p.head += len(out)
	switch {
	case p.head == len(p.entries):
		p.entries, p.head = p.entries[:0], 0
	case p.head > len(p.entries)/2:
		n := copy(p.entries, p.entries[p.head:])
		p.entries, p.head = p.entries[:n], 0
	}
}

// armFlush schedules the pipeline drain that idle fill performs on real
// hardware once the link goes quiet: if no new burst arrives within one
// pipeline time, the held-back characters are released.
func (p *devicePort) armFlush() {
	if p.dev.engines[p.dir].Pending() == 0 {
		p.flush.Stop()
		return
	}
	p.flush.Reset()
}

func portFlush(a any) {
	p := a.(*devicePort)
	p.deliver(p.dev.engines[p.dir].Flush())
}

var _ phy.Receiver = (*devicePort)(nil)
