package campaign

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"netfi/internal/monitor"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// A standing STOP from a switch port into a paused interface runs in bulk
// (myrinet's refresh train). These tests wedge sw0's output to node2 — node0's
// datagram loses its GAP at the injector — so node1's (and node3's) traffic
// backs up in the switch, whose port then holds STOP on node1 for as long as
// the scenario runs. Each scenario runs twice: as built, where the refresh
// train applies its steady periods in bulk, and with a pass-through receiver
// spliced between the switch port's out link and the interface, which sends
// every STOP down the per-event path. Everything observable must match.

// passThrough forwards every burst unchanged. Spliced into a link, it makes
// the link's receiver something other than a link controller, so the refresh
// train into it runs one occurrence at a time.
type passThrough struct{ dst phy.Receiver }

func (p *passThrough) Receive(chars []phy.Character) { p.dst.Receive(chars) }

// digestTap sits in front of a monitor tap and folds the time and content
// of every burst it sees into a digest. It takes bursts one at a time, so a
// train into it replays them burst by burst.
type digestTap struct {
	inner *monitor.Tap
	sum   uint64
}

func (d *digestTap) fold(now sim.Time, chars []phy.Character) {
	for _, c := range chars {
		d.sum = d.sum*1099511628211 + uint64(now)<<9 + uint64(c)
	}
}

func (d *digestTap) ObserveChars(now sim.Time, chars []phy.Character) {
	d.fold(now, chars)
	d.inner.ObserveChars(now, chars)
}

// repeatDigest is a digestTap that also takes a run of bursts in one call,
// as a monitor tap does.
type repeatDigest struct{ digestTap }

func (d *repeatDigest) ObserveRepeat(first sim.Time, step sim.Duration, n int, chars []phy.Character) {
	for i := range n {
		d.fold(first+sim.Time(i)*step, chars)
	}
	d.inner.ObserveRepeat(first, step, n, chars)
}

type trainCase struct {
	name     string
	recovery bool         // 25 ms stop watchdog: 250,000 refresh periods
	second   sim.Duration // if > 0, node3 backs up too, sending this much later: a second train
	sameTime bool         // node3 sends with node1: two trains in phase, which run per event
	idle     bool         // node1 has sent all it had when the STOP reaches it
	send     sim.Duration // node1 queues another datagram this far into the train
	late     sim.Duration // if > 0, node1 turns recovery on this far into the train
	sever    sim.Duration // node1's cable is cut this far into the train
	arrival  int          // if > 0, the cut lands 1 ps after this STOP's arrival
	goAt     int          // if > 0, the port's slack is emptied (a GO) at this refresh
	goLate   bool         // ... by an event scheduled after that refresh's draw
	fork     sim.Duration // if > 0, the run continues on forks taken here
	short    bool         // runs under -short too
}

const trainHorizon = 30 * sim.Millisecond

var trainCases = []trainCase{
	{name: "plain"},
	{name: "recovery", recovery: true, short: true},
	{name: "send", send: 3*sim.Millisecond + 40*sim.Nanosecond},
	{name: "send-recovery", recovery: true, send: 2 * sim.Millisecond},
	{name: "send-idle", idle: true, send: 3*sim.Millisecond + 40*sim.Nanosecond, short: true},
	{name: "send-idle-recovery", idle: true, recovery: true, send: sim.Millisecond},
	{name: "recovery-late", idle: true, late: 2*sim.Millisecond + 50*sim.Nanosecond},
	{name: "sever", sever: 4*sim.Millisecond + 5*sim.Nanosecond},
	{name: "sever-after-arrival", arrival: 20_000},
	{name: "go-early", goAt: 30_000},
	{name: "go-late", goAt: 30_000, goLate: true, short: true},
	{name: "second", second: 1*sim.Microsecond + 30*sim.Nanosecond, recovery: true, short: true},
	{name: "second-in-phase", sameTime: true},
	{name: "second-go", second: 5 * sim.Microsecond, goAt: 12_345, goLate: true},
	{name: "fork", fork: 7*sim.Millisecond + 30*sim.Nanosecond, short: true},
	{name: "fork-recovery", fork: 26 * sim.Millisecond, recovery: true, second: 2 * sim.Microsecond},
}

// trainBed is one scenario's world.
type trainBed struct {
	tb    *Testbed
	mon   *monitor.Plane
	node1 *digestTap     // node1's arriving stream
	node3 *repeatDigest  // node3's
	pts   []*passThrough // the spliced pass-throughs; none in the bulk run
}

var trainPayload = []byte(strings.Repeat("\x55", 256))

// idlePayload sizes node1's second and last datagram in the idle cases: it
// takes sw0.p1's slack over the high watermark, but its tail is on the wire
// before the STOP arrives, so node1 is paused with nothing to send.
const idlePayload = 241

func newTrainBed(c trainCase, perEvent bool) *trainBed {
	var rc myrinet.RecoveryConfig
	if c.recovery {
		rc = myrinet.RecoveryConfig{Enabled: true, StopWatchdog: 25 * sim.Millisecond}
	}
	tb := NewTestbed(TestbedConfig{Seed: 5, Nodes: 4, Recovery: rc})
	tb.Configure("DIR L", "RULE ADD 1 MODE ONCE ACT DROP PAT C0C")
	b := &trainBed{tb: tb, mon: monitor.NewPlane(tb.K, monitor.Config{})}
	for p := 0; p < 4; p++ {
		b.mon.TapSwitchPort(tb.Switch, p, monitor.TapOptions{Flows: true})
	}
	b.node1 = &digestTap{inner: b.mon.TapInterface(tb.Nodes[1].Interface(), monitor.TapOptions{})}
	tb.Nodes[1].Interface().SetTap(b.node1)
	b.node3 = &repeatDigest{digestTap{inner: b.mon.TapInterface(tb.Nodes[3].Interface(), monitor.TapOptions{})}}
	tb.Nodes[3].Interface().SetTap(b.node3)
	b.mon.Start()
	if perEvent {
		for _, p := range []int{1, 3} {
			out := tb.Switch.Controller(p).Out()
			pt := &passThrough{dst: out.Dst()}
			out.SetDst(pt)
			b.pts = append(b.pts, pt)
		}
	}
	tb.Nodes[0].SendUDP(NodeMAC(2), 9, 9, trainPayload[:20])
	sizes := []int{200, 200, 200}
	if c.idle {
		sizes = []int{200, idlePayload}
	}
	for _, n := range sizes {
		tb.Nodes[1].SendUDP(NodeMAC(2), 9, 9, trainPayload[:n])
	}
	if c.sameTime {
		for range 3 {
			tb.Nodes[3].SendUDP(NodeMAC(2), 9, 9, trainPayload[:200])
		}
	}
	if c.second > 0 {
		tb.K.RunFor(c.second)
		for range 3 {
			tb.Nodes[3].SendUDP(NodeMAC(2), 9, 9, trainPayload[:200])
		}
	}
	return b
}

// fork clones the bed onto a new kernel.
func (b *trainBed) fork(t *testing.T) *trainBed {
	m := sim.NewMapper()
	b.tb.K.Clone(m)
	b2 := &trainBed{tb: b.tb.Clone(m), mon: b.mon.Clone(m), node1: new(digestTap), node3: new(repeatDigest)}
	*b2.node1, *b2.node3 = *b.node1, *b.node3
	m.Put(b.node1, b2.node1)
	m.Put(b.node3, b2.node3)
	sim.Rebind(m, &b2.node1.inner, b.node1.inner)
	sim.Rebind(m, &b2.node3.inner, b.node3.inner)
	for _, pt := range b.pts {
		pt2 := new(passThrough)
		m.Put(pt, pt2)
		sim.Rebind(m, &pt2.dst, pt.dst)
		b2.pts = append(b2.pts, pt2)
	}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	return b2
}

// snapshot renders everything the scenario can observe.
func (b *trainBed) snapshot() string {
	tb := b.tb
	var s strings.Builder
	fmt.Fprintf(&s, "now=%v processed=%d pending=%d taps=%x,%x\n", tb.K.Now(), tb.K.Processed(), tb.K.Pending(),
		b.node1.sum, b.node3.sum)
	for p := 0; p < 4; p++ {
		lc := tb.Switch.Controller(p)
		fmt.Fprintf(&s, "p%d %+v paused=%v buffered=%d\n", p, *tb.Switch.PortCounters(p), lc.Paused(), lc.Buffered())
	}
	for _, n := range tb.Nodes {
		lc := n.Interface().Controller()
		fmt.Fprintf(&s, "%s %+v %+v paused=%v queued=%d\n", n.Name(), *n.Interface().Counters(), n.Stats(),
			lc.Paused(), lc.QueuedPackets())
	}
	for _, c := range tb.cables {
		for _, l := range []*phy.Link{c.LeftToRight, c.RightToLeft} {
			chars, bursts := l.Stats()
			fmt.Fprintf(&s, "%s chars=%d bursts=%d severed=%d\n", l.Name(), chars, bursts, l.SeveredChars())
		}
	}
	for _, tp := range b.mon.Taps() {
		bursts, chars, packets, control := tp.Stats()
		fmt.Fprintf(&s, "%s %d %d %d %d\n", tp.Name(), bursts, chars, packets, control)
	}
	for _, e := range b.mon.Events() {
		fmt.Fprintf(&s, "%v\n", e)
	}
	return s.String()
}

// runTrainCase runs one scenario and returns its checkpoint trace and how
// many events the kernel applied in bulk.
func runTrainCase(t *testing.T, c trainCase, perEvent bool) (string, uint64) {
	b := newTrainBed(c, perEvent)
	k := b.tb.K
	// Step (one occurrence at a time in both runs) to the first STOP
	// sw0.p1 asserts: its refreshes follow every StopRefresh from here.
	p1 := b.tb.Switch.PortCounters(1)
	for p1.StopsSent == 0 {
		if !k.Step() || k.Now() > 50*sim.Millisecond {
			t.Fatalf("%s: the wedge never stopped node1", c.name)
		}
	}
	x := k.Now()
	refresh := func(j int) sim.Time { return x + sim.Time(j)*myrinet.StopRefresh }
	flight := myrinet.CharPeriod + myrinet.DefaultLinkConfig("").PropDelay
	if c.send > 0 {
		k.At(x+c.send, func() { b.tb.Nodes[1].SendUDP(NodeMAC(2), 9, 9, trainPayload[:200]) })
	}
	if c.late > 0 {
		k.At(x+c.late, func() {
			b.tb.Nodes[1].Interface().Controller().SetRecovery(myrinet.RecoveryConfig{Enabled: true, StopWatchdog: sim.Millisecond})
		})
	}
	sever := func() { b.tb.cables[1].Sever() }
	if c.sever > 0 {
		k.At(x+c.sever, sever)
	}
	if c.arrival > 0 {
		k.At(refresh(c.arrival)+flight+1, sever)
	}
	if c.goAt > 0 {
		lc := b.tb.Switch.Controller(1)
		goFn := func() { lc.Discard(lc.Buffered()) }
		if at := refresh(c.goAt); c.goLate {
			k.At(at-50*sim.Nanosecond, func() { k.At(at, goFn) })
		} else {
			k.At(at, goFn)
		}
	}
	var trace strings.Builder
	end := x + trainHorizon
	run := func(b *trainBed, from, to sim.Time) {
		for at := from; at < to; {
			at = min(at+500*sim.Microsecond+7, to)
			b.tb.K.RunUntil(at)
			trace.WriteString(b.snapshot())
		}
	}
	if c.fork == 0 {
		run(b, x, end)
		return trace.String(), k.Bulked()
	}
	run(b, x, x+c.fork)
	prefix := trace.String()
	// Two forks run concurrently from the one base, and the base runs on.
	forks := []*trainBed{b.fork(t), b.fork(t)}
	traces := make([]string, len(forks))
	var wg sync.WaitGroup
	for i, f := range forks {
		wg.Add(1)
		go func(i int, f *trainBed) {
			defer wg.Done()
			var tr strings.Builder
			for at := x + c.fork; at < end; {
				at = min(at+500*sim.Microsecond+7, end)
				f.tb.K.RunUntil(at)
				tr.WriteString(f.snapshot())
			}
			traces[i] = tr.String()
		}(i, f)
	}
	run(b, x+c.fork, end)
	wg.Wait()
	for i, tr := range traces {
		if prefix+tr != trace.String() {
			t.Errorf("%s: fork %d diverges from its base", c.name, i)
		}
	}
	return trace.String(), forks[0].tb.K.Bulked()
}

func TestStopTrainBulkMatchesPerEvent(t *testing.T) {
	for _, c := range trainCases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("one case per mechanism in -short")
			}
			want, refBulked := runTrainCase(t, c, true)
			got, bulked := runTrainCase(t, c, false)
			if refBulked != 0 {
				t.Errorf("the per-event run applied %d events in bulk", refBulked)
			}
			if bulked == 0 && !c.sameTime {
				t.Fatal("no refresh period was applied in bulk")
			}
			if got != want {
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("line %d diverges:\n bulk:      %s\n per event: %s", i, gl[i], wl[i])
					}
				}
				t.Fatalf("traces differ in length: %d and %d lines", len(gl), len(wl))
			}
			t.Logf("%d events applied in bulk", bulked)
		})
	}
}
