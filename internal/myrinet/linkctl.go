package myrinet

import (
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// LinkController implements the per-port link protocol shared by switch
// ports and host interfaces: the transmit side paces packets in small chunks
// gated by remote STOP/GO with the short-period (act-as-GO) and long-period
// (terminate packet) timeouts; the receive side classifies incoming
// characters — flow-control symbols act immediately on the transmitter,
// data and GAP characters enter the slack buffer, IDLEs are discarded — and
// generates STOP/GO from the slack watermarks.
//
// The zero value is not usable; construct with NewLinkController.
type LinkController struct {
	k    *sim.Kernel
	pool *phy.Pool // k's burst pool; received bursts are released here
	name string
	out  *phy.Link
	ctr  *Counters

	// Transmit side.
	paused      bool
	shortTimer  sim.Timer
	longTimer   sim.Timer
	txq         []txPacket // txq[txHead:] waits behind cur
	txHead      int
	cur         txPacket
	sending     bool // cur holds the packet on the wire
	curPos      int
	txScheduled bool

	// Streaming transmit side (used by switch ports for cut-through
	// forwarding; mutually exclusive with the packet queue in practice).
	streamBuf []phy.Character
	streamPos int

	// Receive side. The slack buffer reports its watermark crossings to the
	// controller (assertStop, assertGo). refreshEvent is the next STOP
	// refresh while the buffer stays above its low watermark: an occurrence
	// of a sim train, so a standing STOP into a paused peer runs in bulk
	// (BulkStep).
	slack        SlackBuffer
	refreshEvent sim.EventID
	refreshOn    bool

	// The device the controller feeds; nil until one registers.
	consumer linkConsumer

	// Recovery layer (inactive unless recovery.Enabled).
	recovery     RecoveryConfig
	stopWatchdog sim.Timer // continuous-STOP deadline; bound when recovery is first enabled

	// Monitoring tap (nil unless a monitor attached one).
	tap phy.Tap
}

// txPacket is one queued packet: its encoded character stream (including the
// trailing GAP) and its completion, if any — a registered model object, so it
// rebinds across a fork. The stream is a burst from the kernel's pool, owned
// by the queue and released once the packet is finished or terminated.
type txPacket struct {
	chars []phy.Character
	done  TxCompletion
}

// linkConsumer is the device a controller feeds — a switch port or a host
// interface. Each call runs inside the controller's own processing.
type linkConsumer interface {
	// slackReady: characters were appended to the slack buffer; the
	// consumer drains them via Pop/Run/Discard.
	slackReady()
	// txDrained: the streaming backlog fell below StreamBacklogLimit
	// after having been at or above it.
	txDrained()
	// linkReset: the link was reset (locally or by a received RESET
	// symbol); the consumer abandons any in-flight reassembly or
	// forwarding state.
	linkReset()
}

// TxCompletion receives packet-completion notifications: terminated=false
// when the last character was handed to the link, terminated=true when the
// long-period timeout (or stop watchdog) killed the packet. Implementations
// that are registered model objects remap cleanly across a fork.
type TxCompletion interface {
	TxDone(terminated bool)
}

// finish reports the packet's completion and releases its stream.
func (lc *LinkController) finish(p txPacket, terminated bool) {
	if p.done != nil {
		p.done.TxDone(terminated)
	}
	lc.pool.Release(p.chars)
}

// LinkControllerConfig parameterizes a controller.
type LinkControllerConfig struct {
	// Name labels the controller in traces.
	Name string
	// Out is the transmit link.
	Out *phy.Link
	// Counters receives statistics; required.
	Counters *Counters
	// Recovery enables the link-reset protocol and its watchdogs.
	Recovery RecoveryConfig
}

// NewLinkController builds a controller transmitting on cfg.Out. The
// consumer is registered later with setConsumer; characters arriving before
// that sit in the slack buffer.
func NewLinkController(k *sim.Kernel, cfg LinkControllerConfig) *LinkController {
	if cfg.Out == nil {
		panic("myrinet: LinkController requires an output link")
	}
	if cfg.Counters == nil {
		panic("myrinet: LinkController requires counters")
	}
	lc := &LinkController{
		k:    k,
		pool: phy.PoolOf(k),
		name: cfg.Name,
		out:  cfg.Out,
		ctr:  cfg.Counters,
	}
	lc.slack.init(DefaultSlackCapacity, DefaultSlackHigh, DefaultSlackLow, lc)
	lc.shortTimer.Init(k, ShortTimeout, lcShortTimeout, lc)
	lc.longTimer.Init(k, LongTimeout, lcLongTimeout, lc)
	lc.SetRecovery(cfg.Recovery)
	return lc
}

// Timer trampolines: a controller's timers call back through these with the
// controller as the argument (see sim.Timer).
func lcShortTimeout(a any) { a.(*LinkController).onShortTimeout() }
func lcLongTimeout(a any)  { a.(*LinkController).onLongTimeout() }
func lcStopWatchdog(a any) { a.(*LinkController).onStopWatchdog() }

// SetRecovery configures the recovery layer. Disabling it mid-run leaves any
// armed watchdog to expire harmlessly.
func (lc *LinkController) SetRecovery(rc RecoveryConfig) {
	rc.fillDefaults()
	lc.recovery = rc
	if rc.Enabled && !lc.stopWatchdog.Bound() {
		lc.stopWatchdog.Init(lc.k, rc.StopWatchdog, lcStopWatchdog, lc)
	}
	if lc.stopWatchdog.Bound() {
		lc.stopWatchdog.SetPeriod(rc.StopWatchdog)
	}
}

// Recovery reports the controller's recovery configuration.
func (lc *LinkController) Recovery() RecoveryConfig { return lc.recovery }

// Name returns the controller's label.
func (lc *LinkController) Name() string { return lc.name }

// Counters returns the controller's statistics.
func (lc *LinkController) Counters() *Counters { return lc.ctr }

// Slack exposes the receive buffer (for monitors and tests).
func (lc *LinkController) Slack() *SlackBuffer { return &lc.slack }

// Out returns the transmit link.
func (lc *LinkController) Out() *phy.Link { return lc.out }

// setConsumer registers the device the controller feeds.
func (lc *LinkController) setConsumer(c linkConsumer) { lc.consumer = c }

// Pop removes the oldest buffered character, possibly triggering the
// low-watermark GO.
func (lc *LinkController) Pop() (phy.Character, bool) { return lc.slack.Pop() }

// Peek returns the oldest buffered character without removing it.
func (lc *LinkController) Peek() (phy.Character, bool) { return lc.slack.Peek() }

// Run returns the longest contiguous run of buffered characters starting at
// the oldest without consuming them; see SlackBuffer.Run.
func (lc *LinkController) Run() []phy.Character { return lc.slack.Run() }

// Discard consumes the oldest n buffered characters; see SlackBuffer.Discard.
func (lc *LinkController) Discard(n int) { lc.slack.Discard(n) }

// Buffered reports how many characters wait in the slack buffer.
func (lc *LinkController) Buffered() int { return lc.slack.Len() }

// ---- Transmit side ----

// enqueue queues a packet whose stream is a burst from lc's pool.
func (lc *LinkController) enqueue(p txPacket) {
	lc.txq = append(lc.txq, p)
	lc.scheduleTx()
}

// dequeue removes the oldest queued packet. The consumed prefix is reclaimed
// once it passes half the queue, so a busy transmitter keeps appending into
// the same backing array.
func (lc *LinkController) dequeue() txPacket {
	p := lc.txq[lc.txHead]
	lc.txq[lc.txHead] = txPacket{}
	lc.txHead++
	switch {
	case lc.txHead == len(lc.txq):
		lc.txq, lc.txHead = lc.txq[:0], 0
	case lc.txHead > len(lc.txq)/2:
		n := copy(lc.txq, lc.txq[lc.txHead:])
		clear(lc.txq[n:])
		lc.txq, lc.txHead = lc.txq[:n], 0
	}
	return p
}

// QueuedPackets reports how many packets wait behind the current one.
func (lc *LinkController) QueuedPackets() int { return len(lc.txq) - lc.txHead }

// Paused reports whether remote STOP is gating the transmitter.
func (lc *LinkController) Paused() bool { return lc.paused }

// StreamChars appends characters to the streaming transmit buffer. Switch
// ports use this for cut-through forwarding: bytes flow out as they arrive,
// gated by downstream STOP/GO, without packet-granularity queueing.
func (lc *LinkController) StreamChars(chars []phy.Character) {
	lc.streamBuf = append(lc.streamBuf, chars...)
	lc.scheduleTx()
}

// TxBacklog reports how many characters wait in the streaming buffer. A
// forwarding engine checks this before consuming more input so downstream
// congestion propagates upstream as slack-buffer backpressure.
func (lc *LinkController) TxBacklog() int { return len(lc.streamBuf) - lc.streamPos }

// StreamBacklogLimit is the streaming backlog (characters) above which a
// forwarding engine should stop consuming its input: the few dozen
// characters of pipeline a real cut-through switch holds per port.
const StreamBacklogLimit = 64

func (lc *LinkController) scheduleTx() {
	if lc.txScheduled || lc.paused {
		return
	}
	if !lc.sending && lc.QueuedPackets() == 0 && lc.TxBacklog() == 0 {
		return
	}
	lc.txScheduled = true
	// Run when the transmitter is free; immediately if it already is. The
	// capture-free form matters here: this fires once per transmitted
	// chunk, and a method-value closure per chunk would allocate.
	at := lc.out.BusyUntil()
	if at < lc.k.Now() {
		at = lc.k.Now()
	}
	lc.k.AtArg(at, txStepFn, lc)
}

func txStepFn(a any) { a.(*LinkController).txStep() }

func (lc *LinkController) txStep() {
	lc.txScheduled = false
	if lc.paused {
		return // resume on GO or short timeout
	}
	// Streaming buffer drains first (switch ports use only this path).
	if lc.TxBacklog() > 0 {
		lc.streamStep()
		lc.scheduleTx()
		return
	}
	if !lc.sending {
		if lc.QueuedPackets() == 0 {
			return
		}
		lc.cur, lc.sending = lc.dequeue(), true
		lc.curPos = 0
	}
	remaining := len(lc.cur.chars) - lc.curPos
	n := txChunkChars
	if n > remaining {
		n = remaining
	}
	lc.out.Send(lc.cur.chars[lc.curPos : lc.curPos+n])
	lc.ctr.CharsOut += uint64(n)
	lc.curPos += n
	if lc.curPos == len(lc.cur.chars) {
		done := lc.takeCur()
		lc.longTimer.Stop()
		lc.finish(done, false)
	}
	lc.scheduleTx()
}

// takeCur removes the packet on the wire.
func (lc *LinkController) takeCur() txPacket {
	p := lc.cur
	lc.cur, lc.sending = txPacket{}, false
	return p
}

func (lc *LinkController) streamStep() {
	before := lc.TxBacklog()
	n := txChunkChars
	if n > before {
		n = before
	}
	lc.out.Send(lc.streamBuf[lc.streamPos : lc.streamPos+n])
	lc.ctr.CharsOut += uint64(n)
	lc.streamPos += n
	// Reclaim the sent prefix once it passes half the buffer, as dequeue
	// does for txq, so a backlog that never fully drains keeps appending
	// into the same backing array instead of growing it without bound.
	after := lc.TxBacklog()
	switch {
	case after == 0:
		lc.streamBuf, lc.streamPos = lc.streamBuf[:0], 0
	case lc.streamPos > len(lc.streamBuf)/2:
		n := copy(lc.streamBuf, lc.streamBuf[lc.streamPos:])
		lc.streamBuf, lc.streamPos = lc.streamBuf[:n], 0
	}
	if before >= StreamBacklogLimit && after < StreamBacklogLimit && lc.consumer != nil {
		lc.consumer.txDrained()
	}
}

// pauseTx reacts to a received STOP.
func (lc *LinkController) pauseTx() {
	lc.ctr.StopsReceived++
	lc.paused = true
	lc.shortTimer.Reset()
	if lc.sending || lc.QueuedPackets() > 0 {
		if !lc.longTimer.Armed() {
			lc.longTimer.Reset()
		}
	}
	// The stop watchdog measures continuous STOP from the first pause: it
	// is deliberately NOT re-armed by refreshes, so a remote that refreshes
	// STOP forever (wedged consumer, lost GO downstream of it) still hits
	// the deadline.
	if lc.recovery.Enabled && !lc.stopWatchdog.Armed() {
		lc.stopWatchdog.Reset()
	}
}

// resumeTx reacts to a received GO.
func (lc *LinkController) resumeTx() {
	lc.ctr.GosReceived++
	lc.unpause()
}

func (lc *LinkController) unpause() {
	lc.paused = false
	lc.shortTimer.Stop()
	lc.longTimer.Stop()
	lc.stopWatchdog.Stop() // a no-op while unbound
	lc.scheduleTx()
}

// onShortTimeout implements the short-period recovery: a stopped sender that
// hears no flow-control symbol for 16 character periods transitions itself
// to GO (§4.3.1).
func (lc *LinkController) onShortTimeout() {
	if !lc.paused {
		return
	}
	lc.ctr.ShortTimeouts++
	lc.unpause()
}

// onLongTimeout implements the long-period recovery: a sender blocked for
// ~4 million character periods terminates the packet, consumes the unsent
// remainder, and emits a GAP to reclaim the path (§4.3.1).
func (lc *LinkController) onLongTimeout() {
	if !lc.sending && lc.QueuedPackets() == 0 {
		return
	}
	lc.ctr.LongTimeouts++
	var victim txPacket
	if lc.sending {
		victim = lc.takeCur()
	} else {
		victim = lc.dequeue()
	}
	lc.ctr.Drop(DropTerminated)
	if lc.recovery.Enabled {
		// Recovery layer: the termination escalates to a link reset —
		// flush local state and tear the wedged path down with a
		// forward RESET so downstream hops do not stay held for another
		// long-timeout period each.
		lc.out.SendOne(charGap)
		lc.finish(victim, true)
		lc.resetLink()
		return
	}
	// Terminate the packet on the wire so downstream paths release.
	lc.out.SendOne(charGap)
	lc.finish(victim, true)
	// Remain paused if STOP is still in force; the short timer will
	// clear it if the remote has gone silent. Re-arm the long timer for
	// the next queued packet so a persistent block keeps draining the
	// queue at the long-timeout cadence rather than freezing forever.
	if lc.paused && lc.QueuedPackets() > 0 {
		lc.longTimer.Reset()
	}
	if !lc.paused {
		lc.scheduleTx()
	}
}

// onStopWatchdog fires when the transmitter has been continuously
// STOP-blocked for the recovery deadline: the remote's buffer never drained,
// so the path beyond it is wedged. Terminate whatever is in flight and reset
// the link.
func (lc *LinkController) onStopWatchdog() {
	if !lc.paused || !lc.recovery.Enabled {
		return
	}
	lc.ctr.StopWatchdogFires++
	if lc.sending {
		victim := lc.takeCur()
		lc.ctr.Drop(DropTerminated)
		lc.out.SendOne(charGap)
		lc.finish(victim, true)
	}
	lc.resetLink()
}

// resetLink performs the local half of a forward link reset: flush the
// receive slack (with its stale STOP state), propagate a RESET symbol
// downstream, notify the consumer, and resume transmission — the wedged path
// is gone, so a standing STOP no longer binds.
func (lc *LinkController) resetLink() {
	lc.ctr.LinkResets++
	lc.ctr.FlushedChars += uint64(lc.slack.Flush())
	lc.out.SendPriorityOne(charReset)
	if lc.consumer != nil {
		lc.consumer.linkReset()
	}
	lc.unpause()
}

// receiveReset reacts to a RESET symbol from the remote: the upstream end
// tore the path down. Discard buffered input and in-flight consumer state;
// any standing STOP we were honoring is stale.
func (lc *LinkController) receiveReset() {
	lc.ctr.ResetsReceived++
	lc.ctr.FlushedChars += uint64(lc.slack.Flush())
	if lc.consumer != nil {
		lc.consumer.linkReset()
	}
	lc.unpause()
}

// ---- Receive side ----

// Receive implements phy.Receiver: it classifies every incoming character.
// Maximal runs of data and GAP characters — the packet stream — enter the
// slack buffer a run at a time; the other control codes act one at a time.
func (lc *LinkController) Receive(chars []phy.Character) {
	if lc.tap != nil {
		lc.tap.ObserveChars(lc.k.Now(), chars)
	}
	pushed := false
	for i := 0; i < len(chars); {
		j, sym := i, SymbolUnknown
		for ; j < len(chars); j++ {
			if c := chars[j]; !c.IsData() {
				// Packet framing: GAP enters the stream.
				if sym = DecodeControl(c.Byte()); sym != SymbolGap {
					break
				}
			}
		}
		if j > i {
			lc.ctr.CharsIn += uint64(j - i)
			n := lc.slack.PushRun(chars[i:j])
			lc.ctr.OverflowChars += uint64(j - i - n)
			pushed = pushed || n > 0
		}
		if j == len(chars) {
			break
		}
		lc.ctr.CharsIn++
		switch sym {
		case SymbolStop:
			lc.pauseTx()
		case SymbolGo:
			lc.resumeTx()
		case SymbolReset:
			// Only recovery-aware hardware knows the symbol; the
			// paper's interfaces ignore it like any unknown code.
			if lc.recovery.Enabled {
				lc.receiveReset()
			}
		default:
			// IDLE and unrecognized codes: no action.
		}
		i = j + 1
	}
	if pushed && lc.consumer != nil {
		lc.consumer.slackReady()
	}
	// The burst was copied into the slack buffer; hand the pooled buffer
	// back.
	lc.pool.Release(chars)
}

// assertStop is the slack buffer's high-watermark action: issue STOP and
// keep refreshing it so the remote's short-period timer does not release it.
func (lc *LinkController) assertStop() {
	lc.ctr.StopsSent++
	lc.out.SendPriorityOne(charStop)
	lc.armRefresh()
}

func (lc *LinkController) armRefresh() {
	if lc.refreshOn {
		return
	}
	lc.refreshOn = true
	lc.refreshEvent = lc.k.AfterTrain(StopRefresh, refreshStopFn, lc)
}

func refreshStopFn(a any) { a.(*LinkController).refreshStop() }

// refreshStop is one occurrence of the refresh train, run per event: while
// the buffer is still stopping, re-send STOP and schedule the next one.
func (lc *LinkController) refreshStop() {
	lc.refreshOn = false
	if !lc.slack.Stopping() {
		return
	}
	lc.ctr.StopsSent++
	lc.out.SendPriorityOne(charStop)
	lc.armRefresh()
}

// stopPeriod is what one steady refresh period stands for per event: the
// refresh and the STOP's delivery fire; the delivery and the re-arm are
// drawn at the refresh, the peer's short-timer pet at the arrival.
var stopPeriod = sim.Period{Events: 2, Draws: 3, Rearm: 1, Pet: 2}

// stopBurst is the one-STOP burst a peer's tap is shown for each period
// applied in bulk. Taps only read what they observe.
var stopBurst = []phy.Character{charStop}

// repeatTap is a tap that takes a run of identical bursts, the i-th at
// first + i*step, in one call (monitor.Tap). Other taps see one
// ObserveChars per burst.
type repeatTap interface {
	ObserveRepeat(first sim.Time, step sim.Duration, n int, chars []phy.Character)
}

// BulkStep implements sim.Train for the STOP refresh: it applies, in one
// call, every steady period of the refresh train that falls before the
// kernel's next real event. A period is steady when the buffer is stopping
// and the STOP goes straight — no severed wire, no delivery sink, no
// spliced device — to a paused controller on the same kernel that has no
// timer to arm when it arrives (nothing to send or its long timer running;
// with recovery on, its stop watchdog running). Such a period does exactly
// this: the refresh counts a sent STOP and a one-character burst on the
// link; the arrival counts a received character and STOP, shows the STOP to
// the peer's tap, and pets the peer's short timer. Anything else — the
// train's first STOP, a peer that must arm a timer — runs per event through
// refreshStop and Receive.
func (lc *LinkController) BulkStep(b *sim.Bulk) {
	peer, ok := lc.out.Direct().(*LinkController)
	if !ok || peer.k != lc.k || !lc.slack.Stopping() || !peer.paused ||
		(peer.sending || peer.QueuedPackets() > 0) && !peer.longTimer.Armed() ||
		peer.recovery.Enabled && !peer.stopWatchdog.Armed() {
		return
	}
	b.Hold(&peer.shortTimer)
	flight := lc.out.CharPeriod() + lc.out.PropDelay()
	n := b.Periods(StopRefresh, flight)
	if n == 0 {
		return
	}
	switch tap := peer.tap.(type) {
	case nil:
	case repeatTap:
		tap.ObserveRepeat(b.Now()+flight, StopRefresh, n, stopBurst)
	default:
		for at, i := b.Now()+flight, 0; i < n; at, i = at+StopRefresh, i+1 {
			tap.ObserveChars(at, stopBurst)
		}
	}
	lc.ctr.StopsSent += uint64(n)
	lc.out.CountPriority(uint64(n))
	peer.ctr.CharsIn += uint64(n)
	peer.ctr.StopsReceived += uint64(n)
	b.Commit(stopPeriod)
}

// assertGo is the slack buffer's low-watermark action.
func (lc *LinkController) assertGo() {
	if lc.refreshOn {
		lc.k.Cancel(lc.refreshEvent)
		lc.refreshOn = false
	}
	lc.ctr.GosSent++
	lc.out.SendPriorityOne(charGo)
}

var _ phy.Receiver = (*LinkController)(nil)
