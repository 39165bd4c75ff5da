package myrinet

import (
	"testing"

	"netfi/internal/phy"
	"netfi/internal/sim"
)

// testEndpoint is a LinkController wired to a sink that records everything
// the controller transmits.
type testEndpoint struct {
	lc   *LinkController
	sent []phy.Character // characters the controller put on its out link
}

func newTestEndpoint(t *testing.T, k *sim.Kernel, name string) *testEndpoint {
	t.Helper()
	ep := &testEndpoint{}
	out := phy.NewLink(k, phy.LinkConfig{Name: name + ".out", CharPeriod: CharPeriod},
		phy.ReceiverFunc(func(chars []phy.Character) { ep.sent = append(ep.sent, chars...) }))
	ep.lc = NewLinkController(k, LinkControllerConfig{
		Name:     name,
		Out:      out,
		Counters: NewCounters(),
	})
	return ep
}

func (ep *testEndpoint) sentData() []byte {
	var out []byte
	for _, c := range ep.sent {
		if c.IsData() {
			out = append(out, c.Byte())
		}
	}
	return out
}

func (ep *testEndpoint) countControl(sym Symbol) int {
	n := 0
	for _, c := range ep.sent {
		if !c.IsData() && DecodeControl(c.Byte()) == sym {
			n++
		}
	}
	return n
}

func packetChars(n int) []phy.Character {
	chars := make([]phy.Character, 0, n+1)
	for i := 0; i < n; i++ {
		chars = append(chars, phy.DataChar(byte(i)))
	}
	return append(chars, GapChar())
}

func TestLinkControllerTransmitsQueuedPacket(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	done := false
	enqueueCopy(ep.lc, packetChars(10), txFunc(func(terminated bool) {
		if terminated {
			t.Error("packet reported terminated")
		}
		done = true
	}))
	k.Run()
	if !done {
		t.Fatal("completion callback not invoked")
	}
	if got := len(ep.sentData()); got != 10 {
		t.Errorf("sent %d data bytes, want 10", got)
	}
	if ep.countControl(SymbolGap) != 1 {
		t.Errorf("GAPs sent = %d, want 1", ep.countControl(SymbolGap))
	}
}

func TestLinkControllerStopPausesTransmit(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	// Enqueue a packet larger than one chunk, then STOP it after the
	// first chunk is on the wire.
	enqueueCopy(ep.lc, packetChars(200), nil)
	k.RunUntil(txChunkChars * CharPeriod) // first chunk serialized
	ep.lc.Receive([]phy.Character{StopChar()})
	if !ep.lc.Paused() {
		t.Fatal("controller not paused after STOP")
	}
	sentAtStop := len(ep.sent)
	// Within the short timeout the transmitter must stay quiet; keep
	// refreshing STOP.
	for i := 0; i < 10; i++ {
		k.RunFor(StopRefresh)
		ep.lc.Receive([]phy.Character{StopChar()})
	}
	if len(ep.sent) > sentAtStop+txChunkChars {
		t.Errorf("transmitter made progress while stopped: %d -> %d chars", sentAtStop, len(ep.sent))
	}
	// GO releases it.
	ep.lc.Receive([]phy.Character{GoChar()})
	k.Run()
	if got := len(ep.sentData()); got != 200 {
		t.Errorf("sent %d data bytes after GO, want 200", got)
	}
}

func TestLinkControllerShortTimeoutActsAsGo(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	enqueueCopy(ep.lc, packetChars(100), nil)
	k.RunUntil(txChunkChars * CharPeriod)
	ep.lc.Receive([]phy.Character{StopChar()})
	// No refresh: after 16 character periods the sender transitions
	// itself to GO (§4.3.1) and finishes.
	k.Run()
	if got := len(ep.sentData()); got != 100 {
		t.Errorf("sent %d data bytes, want 100 (short timeout should release)", got)
	}
	if ep.lc.Counters().ShortTimeouts != 1 {
		t.Errorf("ShortTimeouts = %d, want 1", ep.lc.Counters().ShortTimeouts)
	}
}

func TestLinkControllerLongTimeoutTerminatesPacket(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	terminated := false
	enqueueCopy(ep.lc, packetChars(1000), txFunc(func(term bool) { terminated = term }))
	k.RunUntil(txChunkChars * CharPeriod)
	// Persistent STOP: refresh forever (a genuinely wedged path).
	var refresh func()
	refresh = func() {
		ep.lc.Receive([]phy.Character{StopChar()})
		if k.Now() < 2*LongTimeout {
			k.After(StopRefresh, refresh)
		}
	}
	refresh()
	k.RunUntil(LongTimeout + 10*sim.Millisecond)
	if !terminated {
		t.Fatal("long-period timeout did not terminate the packet")
	}
	if ep.lc.Counters().LongTimeouts != 1 {
		t.Errorf("LongTimeouts = %d, want 1", ep.lc.Counters().LongTimeouts)
	}
	// The terminating GAP reclaims the path.
	if ep.countControl(SymbolGap) < 1 {
		t.Error("no GAP emitted on termination")
	}
	if got := ep.lc.Counters().Drops[DropTerminated]; got != 1 {
		t.Errorf("DropTerminated = %d, want 1", got)
	}
}

func TestLinkControllerWatermarkStopGo(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	// Do not register a consumer: everything accumulates in slack.
	burst := make([]phy.Character, DefaultSlackHigh)
	for i := range burst {
		burst[i] = phy.DataChar(byte(i))
	}
	ep.lc.Receive(burst)
	k.RunFor(CharPeriod)
	if ep.countControl(SymbolStop) < 1 {
		t.Fatal("no STOP issued at high watermark")
	}
	// STOP refreshes while the buffer stays full.
	k.RunFor(10 * StopRefresh)
	if ep.countControl(SymbolStop) < 5 {
		t.Errorf("STOP refreshes = %d, want several", ep.countControl(SymbolStop))
	}
	// Drain: a GO must follow.
	for {
		if _, ok := ep.lc.Pop(); !ok {
			break
		}
	}
	k.RunFor(CharPeriod)
	if ep.countControl(SymbolGo) != 1 {
		t.Errorf("GO count = %d, want 1", ep.countControl(SymbolGo))
	}
	// And the refresh chain must stop.
	stops := ep.countControl(SymbolStop)
	k.RunFor(20 * StopRefresh)
	if got := ep.countControl(SymbolStop); got != stops {
		t.Errorf("STOP refresh continued after GO: %d -> %d", stops, got)
	}
}

// funcConsumer is a linkConsumer assembled from optional callbacks, for
// tests that watch a bare controller.
type funcConsumer struct{ ready, drained, reset func() }

func (c funcConsumer) slackReady() { call(c.ready) }
func (c funcConsumer) txDrained()  { call(c.drained) }
func (c funcConsumer) linkReset()  { call(c.reset) }

func call(fn func()) {
	if fn != nil {
		fn()
	}
}

func TestLinkControllerClassifiesIncoming(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	var notified int
	ep.lc.setConsumer(funcConsumer{ready: func() { notified++ }})
	ep.lc.Receive([]phy.Character{
		phy.DataChar(0xAA),
		IdleChar(),            // discarded
		GapChar(),             // buffered (framing)
		phy.ControlChar(0x55), // unknown: discarded
	})
	if ep.lc.Buffered() != 2 {
		t.Errorf("Buffered() = %d, want 2 (data+GAP)", ep.lc.Buffered())
	}
	if notified != 1 {
		t.Errorf("notify count = %d, want 1", notified)
	}
	c, _ := ep.lc.Pop()
	if !c.IsData() || c.Byte() != 0xAA {
		t.Errorf("first buffered char = %v", c)
	}
	c, _ = ep.lc.Pop()
	if c.IsData() || DecodeControl(c.Byte()) != SymbolGap {
		t.Errorf("second buffered char = %v, want GAP", c)
	}
}

func TestLinkControllerDegradedStopCodeStillStops(t *testing.T) {
	// 0x08 (a 1->0 fault on STOP) must still pause the transmitter.
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	ep.lc.Receive([]phy.Character{phy.ControlChar(0x08)})
	if !ep.lc.Paused() {
		t.Error("degraded STOP code did not pause")
	}
	ep.lc.Receive([]phy.Character{phy.ControlChar(0x02)}) // degraded GO
	if ep.lc.Paused() {
		t.Error("degraded GO code did not resume")
	}
}

func TestLinkControllerStreamPath(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	ep.lc.StreamChars(packetChars(50))
	k.Run()
	if got := len(ep.sentData()); got != 50 {
		t.Errorf("streamed %d data bytes, want 50", got)
	}
	if ep.lc.TxBacklog() != 0 {
		t.Errorf("TxBacklog() = %d after drain, want 0", ep.lc.TxBacklog())
	}
}

func TestLinkControllerStreamBackpressureNotify(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	drained := 0
	ep.lc.setConsumer(funcConsumer{drained: func() { drained++ }})
	big := make([]phy.Character, StreamBacklogLimit*3)
	for i := range big {
		big[i] = phy.DataChar(byte(i))
	}
	ep.lc.StreamChars(big)
	if ep.lc.TxBacklog() < StreamBacklogLimit {
		t.Fatal("backlog below limit immediately after big stream")
	}
	k.Run()
	if drained == 0 {
		t.Error("drain notify never fired")
	}
	if ep.lc.TxBacklog() != 0 {
		t.Errorf("TxBacklog() = %d, want 0", ep.lc.TxBacklog())
	}
}

// A stream whose backlog never drains to zero still reuses its buffer: the
// sent prefix is reclaimed once it passes half the buffer, so capacity
// tracks the live backlog, not everything ever streamed.
func TestLinkControllerStreamReclaimsSentPrefix(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	chunk := packetChars(31)
	ep.lc.StreamChars(chunk)
	ep.lc.StreamChars(chunk)
	maxBacklog := 0
	for i := 0; i < 1000; i++ {
		ep.lc.StreamChars(chunk)
		// Send as many characters as were queued: the backlog holds
		// steady one chunk deep and never reaches zero.
		k.RunFor(sim.Duration(len(chunk)) * CharPeriod)
		backlog := ep.lc.TxBacklog()
		if backlog == 0 {
			t.Fatalf("round %d: backlog drained; the test needs a standing backlog", i)
		}
		maxBacklog = max(maxBacklog, backlog)
	}
	if c := cap(ep.lc.streamBuf); c > 4*maxBacklog {
		t.Errorf("stream buffer capacity %d after %d characters streamed, live backlog at most %d",
			c, 1002*len(chunk), maxBacklog)
	}
	k.Run()
	if got, want := len(ep.sent), 1002*len(chunk); got != want {
		t.Errorf("sent %d characters, want %d", got, want)
	}
}

func TestLinkControllerStopGoCounters(t *testing.T) {
	k := sim.NewKernel(1)
	ep := newTestEndpoint(t, k, "a")
	ep.lc.Receive([]phy.Character{StopChar(), GoChar(), StopChar(), GoChar()})
	ctr := ep.lc.Counters()
	if ctr.StopsReceived != 2 || ctr.GosReceived != 2 {
		t.Errorf("stop/go received = %d/%d, want 2/2", ctr.StopsReceived, ctr.GosReceived)
	}
	_ = k
}

// txFunc is a test TxCompletion: the function it is.
type txFunc func(terminated bool)

func (f txFunc) TxDone(terminated bool) { f(terminated) }

// enqueueCopy queues a copy of an encoded packet (characters including the
// trailing GAP) on lc; done, when non-nil, hears of its completion.
func enqueueCopy(lc *LinkController, chars []phy.Character, done TxCompletion) {
	own := lc.pool.Get(len(chars))
	copy(own, chars)
	lc.enqueue(txPacket{chars: own, done: done})
}
