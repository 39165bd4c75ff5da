package myrinet

import (
	"fmt"

	"netfi/internal/bitstream"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Switch is a Myrinet crossbar switch: cut-through (wormhole) forwarding
// with source routing. Each input port strips the leading route byte,
// acquires the selected output port, and streams the packet through with a
// one-byte holdback so the trailing CRC-8 can be replaced by the recomputed
// value (the route byte it consumed no longer participates). The acquired
// path is held until the packet-terminating GAP passes — if the GAP is lost,
// the path stays occupied and other traffic to that output experiences
// destination blocking until a GAP finally arrives (§4.3.1, "Corruption of
// GAP symbols").
//
// Mapping packets (type 0x0005) additionally collect the input-port number
// of every switch they traverse: the port byte is appended to the payload
// (before the recomputed CRC), which is how scout replies learn a return
// route. Real Myrinet mapping firmware obtains equivalent information; see
// DESIGN.md.
//
// The zero value is not usable; construct with NewSwitch.
type Switch struct {
	k        *sim.Kernel
	name     string
	ports    []*switchPort
	recovery RecoveryConfig
	// freeWakes recycles fired waiter wake-ups.
	freeWakes []*outputWake
}

// DefaultPortCount matches the paper's test bed (an 8-port switch).
const DefaultPortCount = 8

// portState is the input-side forwarding FSM state.
type portState int

const (
	stIdle portState = iota
	stForward
	stDrop
	stWaitOutput
)

// headPhase tracks progress through a packet's head so a forwarding port can
// recognize mapping packets without knowing route length a priori: remaining
// route bytes have the MSB set, then one final route byte, then the 4-byte
// type field.
type headPhase int

const (
	phRoute headPhase = iota
	phType
	phBody
)

type switchPort struct {
	sw    *Switch
	index int
	lc    *LinkController // nil when nothing attached
	ctr   *Counters

	// Input FSM.
	state        portState
	outPort      *switchPort
	pendingRoute byte // route byte consumed while waiting for the output
	held         byte
	haveHeld     bool
	// crcCorr is the incremental CRC adjustment for the stripped route
	// byte: the hardware does not rescan the packet, it updates the
	// trailing CRC-8 using the code's linearity — so corruption already
	// present in the stream stays CRC-inconsistent through the hop
	// (which is how §4.3.3's address corruptions get dropped "as a
	// result of the incorrect CRC-8" at the destination).
	crcCorr   byte
	phase     headPhase
	typeBytes []byte
	isMapping bool
	scratch   [1]phy.Character // reusable single-character StreamChars arg

	// Output ownership.
	owner   *switchPort
	waiters []*switchPort

	// Recovery layer: the blocked-packet watchdog, bound when recovery is
	// first enabled. Re-armed on every unit of forwarding progress; expiry
	// tears down a packet that is stuck waiting for a held output or whose
	// tail never arrives.
	blockedTimer sim.Timer
}

// NewSwitch returns a switch with n unattached ports.
func NewSwitch(k *sim.Kernel, name string, n int) *Switch {
	if n <= 0 {
		panic("myrinet: switch needs at least one port")
	}
	sw := &Switch{k: k, name: name, ports: make([]*switchPort, n)}
	for i := range sw.ports {
		sw.ports[i] = &switchPort{sw: sw, index: i, ctr: NewCounters()}
	}
	return sw
}

// Name returns the switch's label.
func (sw *Switch) Name() string { return sw.name }

// Ports reports the port count.
func (sw *Switch) Ports() int { return len(sw.ports) }

// Attached reports whether a device is connected at port p.
func (sw *Switch) Attached(p int) bool {
	return p >= 0 && p < len(sw.ports) && sw.ports[p].lc != nil
}

// PortCounters returns the statistics of port p.
func (sw *Switch) PortCounters(p int) *Counters { return sw.ports[p].ctr }

// AttachLink wires port p: out is the link transmitting toward the attached
// device; the returned receiver must be set as the destination of the link
// arriving from the device.
func (sw *Switch) AttachLink(p int, out *phy.Link) phy.Receiver {
	if p < 0 || p >= len(sw.ports) {
		panic(fmt.Sprintf("myrinet: switch %s has no port %d", sw.name, p))
	}
	port := sw.ports[p]
	if port.lc != nil {
		panic(fmt.Sprintf("myrinet: switch %s port %d already attached", sw.name, p))
	}
	port.lc = NewLinkController(sw.k, LinkControllerConfig{
		Name:     fmt.Sprintf("%s.p%d", sw.name, p),
		Out:      out,
		Counters: port.ctr,
		Recovery: sw.recovery,
	})
	port.lc.setConsumer(port)
	port.applyRecovery(sw.recovery)
	return port.lc
}

// SetRecovery enables (or reconfigures) the recovery layer on every port,
// attached now or later.
func (sw *Switch) SetRecovery(rc RecoveryConfig) {
	rc.fillDefaults()
	sw.recovery = rc
	for _, p := range sw.ports {
		if p.lc != nil {
			p.lc.SetRecovery(rc)
			p.applyRecovery(rc)
		}
	}
}

func (p *switchPort) applyRecovery(rc RecoveryConfig) {
	if !rc.Enabled {
		return
	}
	if !p.blockedTimer.Bound() {
		p.blockedTimer.Init(p.sw.k, rc.BlockedTimeout, portBlockedTimeout, p)
	}
	p.blockedTimer.SetPeriod(rc.BlockedTimeout)
}

func portBlockedTimeout(a any) { a.(*switchPort).onBlockedTimeout() }

// petBlocked re-arms the blocked-packet watchdog: a unit of forwarding
// progress happened.
func (p *switchPort) petBlocked() {
	if p.blockedTimer.Bound() {
		p.blockedTimer.Reset()
	}
}

// stopBlocked disarms the watchdog (a no-op while it is unbound).
func (p *switchPort) stopBlocked() { p.blockedTimer.Stop() }

// Controller exposes port p's link controller (monitors and tests).
func (sw *Switch) Controller(p int) *LinkController { return sw.ports[p].lc }

// HeldOutputs counts output ports currently owned by a forwarding path. A
// nonzero count on a quiet network is the paper's hang signature: a path
// acquired by a packet whose terminating GAP never arrived.
func (sw *Switch) HeldOutputs() int {
	n := 0
	for _, p := range sw.ports {
		if p.owner != nil {
			n++
		}
	}
	return n
}

// ---- input FSM ----

// slackReady implements linkConsumer: input arrived, forward what can move.
func (p *switchPort) slackReady() { p.drain() }

// batchForward gates the run-granular forwarding fast path. Always on in
// production; the equivalence test clears it to pin the batch path against
// per-character stepping.
var batchForward = true

// drain consumes characters from the port's slack buffer until it empties or
// the FSM must block (output busy, or downstream backlog at the limit).
func (p *switchPort) drain() {
	for {
		switch p.state {
		case stWaitOutput:
			return // woken by onOutputFree
		case stForward:
			if p.outPort.lc.TxBacklog() >= StreamBacklogLimit {
				return // woken by txDrained
			}
			if batchForward && p.phase == phBody && p.drainRun() {
				continue
			}
		}
		c, ok := p.lc.Pop()
		if !ok {
			return
		}
		p.step(c)
	}
}

// drainRun forwards a run of packet-body data characters as slices instead of
// one character at a time: the head scan is already past (phBody), so each
// character's work is emit-previous-and-hold, which coalesces into at most
// three StreamChars appends plus a bulk CRC-correction advance. Reports false
// when the buffer head is not a batchable run (control character next, or a
// single buffered character) and the caller falls back to per-character
// stepping.
//
// Event-order exactness: the only externally visible effects of the
// per-character loop are the transmit-buffer appends, the low-watermark GO a
// pop may fire, and the blocked-watchdog pets — so the GO must land between
// the same two appends as in per-character stepping (the discard is split at
// the crossing), and the watchdog is pet once per consumed character (each
// pet allocates a kernel event ID, and the ID sequence is part of the
// simulation's determinism contract).
func (p *switchPort) drainRun() bool {
	run := p.lc.Run()
	k := 0
	for k < len(run) && run[k].IsData() {
		k++
	}
	if k < 2 {
		return false
	}
	if a := StreamBacklogLimit - p.outPort.lc.TxBacklog(); k > a {
		k = a
	}
	// x is the pop ordinal whose completion fires the low-watermark GO
	// upstream; k+1 when no crossing happens within this run.
	slack := p.lc.Slack()
	x := k + 1
	if slack.Stopping() {
		if c := slack.Len() - slack.Low(); c <= k {
			k, x = c, c
		}
	}
	out := p.outPort.lc
	if x == 1 {
		p.lc.Discard(1) // fires the GO, before this step's pet and emit
	}
	p.petBlocked()
	p.scratch[0] = phy.DataChar(p.held)
	out.StreamChars(p.scratch[:1])
	if x <= 1 || x > k {
		// GO already fired (x==1) or never fires in this run: the remaining
		// emits coalesce into one append.
		for i := 2; i <= k; i++ {
			p.petBlocked()
		}
		out.StreamChars(run[:k-1])
		if x == 1 {
			p.lc.Discard(k - 1)
		} else {
			p.lc.Discard(k)
		}
	} else {
		// 1 < x == k: the run was truncated at the crossing, whose pop —
		// and GO — per-character stepping interleaves before the final
		// pet and emit.
		for i := 2; i < k; i++ {
			p.petBlocked()
		}
		out.StreamChars(run[:k-2])
		p.lc.Discard(k) // fires the GO
		p.petBlocked()
		out.StreamChars(run[k-2 : k-1])
	}
	p.held = run[k-1].Byte()
	p.crcCorr = bitstream.CRC8Zeros(p.crcCorr, k)
	return true
}

// step feeds one character to the FSM.
func (p *switchPort) step(c phy.Character) {
	switch p.state {
	case stIdle:
		p.stepIdle(c)
	case stForward:
		p.stepForward(c)
	case stDrop:
		if !c.IsData() && DecodeControl(c.Byte()) == SymbolGap {
			p.state = stIdle
		}
	case stWaitOutput:
		// Unreachable: drain() never pops in this state.
		panic("myrinet: switch port consumed input while waiting for output")
	}
}

func (p *switchPort) stepIdle(c phy.Character) {
	if !c.IsData() {
		return // stray GAP between packets: harmless separator
	}
	route := c.Byte()
	if route&RouteSwitchFlag == 0 {
		// The packet expected to be at its destination already.
		p.ctr.Drop(DropSwitchMSB)
		p.state = stDrop
		return
	}
	out := int(route & RoutePortMask)
	if out >= len(p.sw.ports) || p.sw.ports[out].lc == nil {
		p.ctr.Drop(DropBadPort)
		p.state = stDrop
		return
	}
	target := p.sw.ports[out]
	if target.owner != nil {
		// Destination blocking: the output is held by another path.
		p.pendingRoute = route
		p.state = stWaitOutput
		target.waiters = append(target.waiters, p)
		p.petBlocked()
		return
	}
	p.beginForward(target, route)
}

// beginForward acquires the output port and resets per-packet state.
func (p *switchPort) beginForward(target *switchPort, route byte) {
	target.owner = p
	p.outPort = target
	p.state = stForward
	p.crcCorr = bitstream.CRC8Update(0, route)
	p.haveHeld = false
	p.phase = phRoute
	p.typeBytes = p.typeBytes[:0]
	p.isMapping = false
	p.petBlocked()
}

func (p *switchPort) stepForward(c phy.Character) {
	p.petBlocked()
	if c.IsData() {
		b := c.Byte()
		p.scanHead(b)
		if p.haveHeld {
			p.emit(p.held)
		}
		p.held = b
		p.haveHeld = true
		return
	}
	if DecodeControl(c.Byte()) != SymbolGap {
		return // IDLE or unknown inside a packet: ignored
	}
	// End of packet: the held byte is the incoming CRC — adjust it for
	// the stripped route byte (and any appended port byte).
	if p.haveHeld {
		crc := p.held ^ p.crcCorr
		if p.isMapping {
			// Collect the input port for the scout and extend the CRC
			// over it.
			p.outPort.lc.StreamChars([]phy.Character{phy.DataChar(byte(p.index))})
			crc = bitstream.CRC8Update(crc, byte(p.index))
		}
		p.outPort.lc.StreamChars([]phy.Character{phy.DataChar(crc), charGap})
		p.ctr.PacketsForwarded++
	} else {
		// Route byte immediately followed by GAP: nothing to forward.
		p.outPort.lc.StreamChars([]phy.Character{charGap})
		p.ctr.Drop(DropTruncated)
	}
	p.releaseOutput()
	p.state = stIdle
	p.stopBlocked()
}

// scanHead advances the head-phase tracker used to recognize mapping
// packets: skip remaining route bytes (MSB set), one final route byte, then
// collect the 4-byte type field.
func (p *switchPort) scanHead(b byte) {
	switch p.phase {
	case phRoute:
		if b&RouteSwitchFlag != 0 {
			return // another switch hop ahead
		}
		p.phase = phType // b is the final route byte
	case phType:
		p.typeBytes = append(p.typeBytes, b)
		if len(p.typeBytes) == 4 {
			typ := uint16(p.typeBytes[2])<<8 | uint16(p.typeBytes[3])
			p.isMapping = typ == TypeMapping && p.typeBytes[0] == 0 && p.typeBytes[1] == 0
			p.phase = phBody
		}
	case phBody:
	}
}

// emit streams one forwarded data byte and advances the CRC correction by
// one position (the stripped byte's error term shifts with every following
// byte).
func (p *switchPort) emit(b byte) {
	p.crcCorr = bitstream.CRC8Update(p.crcCorr, 0)
	p.outPort.lc.StreamChars([]phy.Character{phy.DataChar(b)})
}

// outputWake is the argument of a deferred waiter wake-up. It is a record of
// its own (not a field on the port) because a port can in principle be
// re-queued and re-woken while an earlier wake is still in flight, and the
// two wakes must not share state; a fired wake returns to its switch's free
// list. It clones across a fork by remapping both ports onto a record from
// the fork switch's free list.
type outputWake struct{ waiter, out *switchPort }

func fireOutputWake(a any) {
	w := a.(*outputWake)
	waiter, out := w.waiter, w.out
	*w = outputWake{}
	out.sw.freeWakes = append(out.sw.freeWakes, w)
	waiter.onOutputFree(out)
}

// CloneSimArg implements sim.ArgClonable for pending wake events.
func (w *outputWake) CloneSimArg(m *sim.Mapper) any {
	waiter, ok1 := m.Lookup(w.waiter)
	out, ok2 := m.Lookup(w.out)
	if !ok1 || !ok2 {
		m.Fail(fmt.Errorf("myrinet: fork: wake references an uncloned switch port"))
		return nil
	}
	o := out.(*switchPort)
	return o.sw.newWake(waiter.(*switchPort), o)
}

// ReclaimSimArg implements sim.ArgReclaimer: a pending wake of a world being
// forked into returns to its switch's free list.
func (w *outputWake) ReclaimSimArg() {
	sw := w.out.sw
	*w = outputWake{}
	sw.freeWakes = append(sw.freeWakes, w)
}

// releaseOutput frees the held output port and wakes the next waiter.
func (p *switchPort) releaseOutput() {
	out := p.outPort
	p.outPort = nil
	out.owner = nil
	if len(out.waiters) == 0 {
		return
	}
	next := out.waiters[0]
	// Shift down rather than reslice: the queue holds at most one entry
	// per port, and keeping its backing array keeps re-queueing free.
	out.waiters = append(out.waiters[:0], out.waiters[1:]...)
	p.sw.k.AfterArg(0, fireOutputWake, p.sw.newWake(next, out))
}

// newWake takes a wake record off the free list, or allocates one.
func (sw *Switch) newWake(waiter, out *switchPort) *outputWake {
	var w *outputWake
	if last := len(sw.freeWakes) - 1; last >= 0 {
		w = sw.freeWakes[last]
		sw.freeWakes = sw.freeWakes[:last]
	} else {
		w = new(outputWake)
	}
	w.waiter, w.out = waiter, out
	return w
}

// onOutputFree resumes a port blocked in stWaitOutput.
func (p *switchPort) onOutputFree(out *switchPort) {
	if p.state != stWaitOutput {
		return
	}
	if out.owner != nil {
		// Someone re-acquired it first; queue again.
		out.waiters = append(out.waiters, p)
		return
	}
	p.beginForward(out, p.pendingRoute)
	p.drain()
}

// txDrained implements linkConsumer: it resumes the port that paused on this
// output's downstream backlog.
func (p *switchPort) txDrained() {
	// The callback fires on the OUTPUT controller; resume the input that
	// holds it.
	if p.owner != nil {
		p.owner.drain()
	}
}

// ---- recovery layer ----

// unwait removes p from the waiter queue of the output its pending route
// selected.
func (p *switchPort) unwait() {
	target := p.sw.ports[int(p.pendingRoute&RoutePortMask)]
	for i, w := range target.waiters {
		if w == p {
			target.waiters = append(target.waiters[:i], target.waiters[i+1:]...)
			break
		}
	}
}

// onBlockedTimeout fires when a cut-through packet made no forwarding
// progress for the blocked-packet deadline.
func (p *switchPort) onBlockedTimeout() {
	switch p.state {
	case stWaitOutput:
		// Head-of-line deadlock breaking: the output this packet wants
		// is held by a path that is not moving (a lost GO or corrupted
		// GAP upstream). Drop the stuck packet — its remaining
		// characters drain to the bit bucket — so traffic behind it to
		// other outputs flows again.
		p.ctr.BlockedTimeouts++
		p.ctr.Drop(DropBlocked)
		p.unwait()
		p.state = stDrop
		p.drain()
	case stForward:
		// Mid-stream stall: the tail never arrived (lost GAP) or the
		// downstream backlog froze. Terminate the partial packet on the
		// output — the trailing GAP makes the next hop's CRC check
		// reject it — propagate a forward RESET, and release the path.
		p.ctr.BlockedTimeouts++
		p.ctr.Drop(DropBlocked)
		p.ctr.LinkResets++
		p.outPort.lc.StreamChars([]phy.Character{charGap, charReset})
		p.releaseOutput()
		p.state = stDrop
		p.drain()
	}
}

// linkReset implements linkConsumer. It reacts to a reset of the attached
// link — a RESET symbol from the device, or the controller's own: the
// upstream end of this input tore its path down. Abandon in-flight state
// and, if an output was held, propagate the reset through it.
func (p *switchPort) linkReset() {
	switch p.state {
	case stForward:
		p.ctr.Drop(DropReset)
		p.outPort.lc.StreamChars([]phy.Character{charGap, charReset})
		p.releaseOutput()
	case stWaitOutput:
		p.ctr.Drop(DropReset)
		p.unwait()
	}
	// The slack was flushed with the reset; the next character from
	// upstream opens a fresh packet.
	p.state = stIdle
	p.stopBlocked()
}
