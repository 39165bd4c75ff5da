package monitor

import (
	"fmt"
	"strings"

	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// EventKind classifies a plane event.
type EventKind uint8

const (
	// EventSuspect — an accrual detector crossed its phi threshold.
	EventSuspect EventKind = iota
	// EventRecover — a suspected source resumed (phi fell back under
	// the threshold after fresh heartbeats).
	EventRecover
	// EventAnomaly — the streaming pipeline flagged a loss burst, a
	// wedged output, or a latency shift.
	EventAnomaly
)

// String returns the event-kind mnemonic.
func (k EventKind) String() string {
	switch k {
	case EventSuspect:
		return "suspect"
	case EventRecover:
		return "recover"
	case EventAnomaly:
		return "anomaly"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one detection the plane recorded.
type Event struct {
	Time   sim.Time
	Kind   EventKind
	Source string // detector or probe name
	Detail string // "phi", "loss-burst", "wedge", "latency-shift"
	Value  float64
}

// String renders the event for reports.
func (e Event) String() string {
	return fmt.Sprintf("%-10v %-8s %-18s %-13s %.2f",
		e.Time, e.Kind, e.Source, e.Detail, e.Value)
}

// Config parameterizes a monitoring plane.
type Config struct {
	// SampleInterval is the detector/probe evaluation period. Zero
	// selects 1 ms.
	SampleInterval sim.Duration
	// Phi configures every accrual detector the plane creates.
	Phi PhiConfig
	// FlowIdle is the flow-cache inactivity timeout. Zero selects 50 ms.
	FlowIdle sim.Duration
}

const (
	// exportCap bounds the flow export ring.
	exportCap = 256
	// maxEvents bounds the event log; further events are counted but not
	// stored.
	maxEvents = 1024
)

func (c *Config) fillDefaults() {
	if c.SampleInterval == 0 {
		c.SampleInterval = sim.Millisecond
	}
	if c.FlowIdle == 0 {
		c.FlowIdle = 50 * sim.Millisecond
	}
}

// TapOptions selects what a tap feeds.
type TapOptions struct {
	// Flows builds NetFlow records from the tap's packet stream.
	Flows bool
	// Detect arms a phi-accrual detector on the tap's data-packet
	// arrivals (each completed data packet is a heartbeat).
	Detect bool
	// LatencyShift arms the inter-burst-gap shift detector.
	LatencyShift bool
}

// Tap is one observation point: it implements phy.Tap, parsing the
// batched character stream into packet boundaries, feeding the flow table,
// the accrual detector, and the gap statistics. The parse keeps a bounded
// header prefix in a fixed buffer, so steady-state observation allocates
// nothing.
type Tap struct {
	plane *Plane
	name  string

	flows    *FlowTable
	detector *PhiDetector
	gap      *ShiftDetector
	gapHot   bool // last gap sample already flagged (one event per episode)

	lastBurst sim.Time
	haveBurst bool

	// Packet reassembly (header prefix only).
	inPacket bool
	buf      [64]byte
	n        int
	pktBytes int

	packets uint64
	control uint64
	bursts  uint64
	chars   uint64
}

// Name returns the tap's label.
func (t *Tap) Name() string { return t.name }

// Flows returns the tap's flow table, nil unless armed.
func (t *Tap) Flows() *FlowTable { return t.flows }

// Detector returns the tap's accrual detector, nil unless armed.
func (t *Tap) Detector() *PhiDetector { return t.detector }

// Stats reports bursts, characters, data packets and non-data packets the
// tap has observed.
func (t *Tap) Stats() (bursts, chars, packets, control uint64) {
	return t.bursts, t.chars, t.packets, t.control
}

// ObserveChars implements phy.Tap. The slice is borrowed: everything
// needed later is copied into the tap's fixed header buffer.
func (t *Tap) ObserveChars(now sim.Time, chars []phy.Character) {
	t.bursts++
	t.chars += uint64(len(chars))
	if t.gap != nil {
		if t.haveBurst {
			d := float64(now - t.lastBurst)
			if t.gap.Add(d) {
				if !t.gapHot {
					t.gapHot = true
					t.plane.record(Event{
						Time: now, Kind: EventAnomaly, Source: t.name,
						Detail: "latency-shift", Value: t.gap.Z(),
					})
				}
			} else {
				t.gapHot = false
			}
		}
		t.haveBurst = true
		t.lastBurst = now
	}
	for _, c := range chars {
		if c.IsData() {
			t.inPacket = true
			t.pktBytes++
			if t.n < len(t.buf) {
				t.buf[t.n] = c.Byte()
				t.n++
			}
			continue
		}
		switch c.Byte() {
		case myrinet.SymGap:
			if t.inPacket {
				t.completePacket(now)
			}
		case myrinet.SymReset:
			// The path was torn down: whatever was in flight is gone.
			t.abortPacket()
			if t.flows != nil {
				t.flows.Reset()
			}
		}
	}
}

// ObserveRepeat observes chars n times, the i-th at first + i*step: what n
// ObserveChars calls would do. A standing STOP's refresh train applied in
// bulk reports its arrivals this way. Control symbols the parser ignores
// (anything but GAP and RESET) only move the counters, so a burst of them
// is counted at once unless the gap detector needs every burst's time.
func (t *Tap) ObserveRepeat(first sim.Time, step sim.Duration, n int, chars []phy.Character) {
	if t.gap == nil && inert(chars) {
		t.bursts += uint64(n)
		t.chars += uint64(n) * uint64(len(chars))
		return
	}
	for i := range n {
		t.ObserveChars(first+sim.Time(i)*step, chars)
	}
}

// inert reports whether chars holds only control symbols ObserveChars takes
// no action on.
func inert(chars []phy.Character) bool {
	for _, c := range chars {
		if c.IsData() || c.Byte() == myrinet.SymGap || c.Byte() == myrinet.SymReset {
			return false
		}
	}
	return true
}

func (t *Tap) abortPacket() {
	t.inPacket = false
	t.n = 0
	t.pktBytes = 0
}

// completePacket classifies the buffered header: skip switch-hop route
// bytes (MSB set), the final route byte, the 4-byte type field, then read
// the destination and source identifiers of data packets. The same parse
// works at a switch input (route intact), at a host interface (hops
// consumed) and on the injector's splice (core.Device.SetTap).
func (t *Tap) completePacket(now sim.Time) {
	raw := t.buf[:t.n]
	size := t.pktBytes
	t.abortPacket()
	i := 0
	for i < len(raw) && raw[i]&myrinet.RouteSwitchFlag != 0 {
		i++
	}
	i++ // final route byte
	if i+4 > len(raw) {
		t.control++
		return
	}
	hi := uint16(raw[i])<<8 | uint16(raw[i+1])
	typ := uint16(raw[i+2])<<8 | uint16(raw[i+3])
	i += 4
	if hi != 0 || typ != myrinet.TypeData || i+12 > len(raw) {
		t.control++
		return
	}
	t.packets++
	if t.detector != nil {
		t.detector.Heartbeat(now)
	}
	if t.flows != nil {
		var key FlowKey
		copy(key.Dst[:], raw[i:i+6])
		copy(key.Src[:], raw[i+6:i+12])
		t.flows.Observe(key, size, now)
	}
}

var _ phy.Tap = (*Tap)(nil)

// planeDetector pairs a tap's accrual detector with its suspicion state.
type planeDetector struct {
	name      string
	d         *PhiDetector
	suspected bool
}

// probe is a polled counter or gauge evaluated every sample interval.
type probe struct {
	name   string
	detail string
	// Exactly one of counter/gauge is set.
	counter func() uint64 // counter probe: alarm on positive delta
	gauge   func() int    // wedge probe: alarm on persistent nonzero
	last    uint64
	hot     bool // alarm already raised for the current episode
	streak  int  // consecutive nonzero gauge samples
}

// Plane is the monitoring plane: a set of taps, accrual detectors, and
// polled probes evaluated every sample interval on the simulation's timer
// wheel. All iteration is in attachment order, so identical runs produce
// identical event logs — the property campaign determinism tests pin.
//
// The zero value is not usable; construct with NewPlane.
type Plane struct {
	k      *sim.Kernel
	cfg    Config
	ticker sim.Ticker
	ring   *ExportRing

	taps      []*Tap
	detectors []*planeDetector
	probes    []*probe

	events        []Event
	eventOverflow uint64
}

// NewPlane returns a plane bound to k. Attach taps and probes, then Start.
func NewPlane(k *sim.Kernel, cfg Config) *Plane {
	cfg.fillDefaults()
	p := &Plane{k: k, cfg: cfg, ring: NewExportRing(exportCap)}
	p.ticker.Init(k, cfg.SampleInterval, planeTick, p)
	return p
}

func planeTick(a any) { a.(*Plane).tick() }

// NewTap creates a named observation point with the given options. The
// caller wires it to a stream through a SetTap hook — a Myrinet link
// controller's or the injector's (core.Device.SetTap) — or feeds it
// directly in tests.
func (p *Plane) NewTap(name string, opts TapOptions) *Tap {
	t := &Tap{plane: p, name: name}
	if opts.Flows {
		t.flows = NewFlowTable(name, p.ring, p.cfg.FlowIdle)
	}
	if opts.Detect {
		t.detector = NewPhiDetector(p.cfg.Phi)
		p.detectors = append(p.detectors, &planeDetector{name: name, d: t.detector})
	}
	if opts.LatencyShift {
		t.gap = NewShiftDetector(0, 0) // the detector's own defaults
	}
	p.taps = append(p.taps, t)
	return t
}

// TapSwitchPort attaches a new tap to switch port p's input stream.
func (pl *Plane) TapSwitchPort(sw *myrinet.Switch, port int, opts TapOptions) *Tap {
	t := pl.NewTap(fmt.Sprintf("%s.p%d", sw.Name(), port), opts)
	sw.SetPortTap(port, t)
	return t
}

// TapInterface attaches a new tap to the interface's arriving stream.
func (pl *Plane) TapInterface(ifc *myrinet.Interface, opts TapOptions) *Tap {
	t := pl.NewTap(ifc.Name()+".rx", opts)
	ifc.SetTap(t)
	return t
}

// AddCounterProbe polls a monotone counter every sample interval and raises
// an anomaly with the given detail label when it advances (one event per
// episode: the alarm re-arms after an interval with no advance).
func (p *Plane) AddCounterProbe(name, detail string, fn func() uint64) {
	p.probes = append(p.probes, &probe{name: name, detail: detail, counter: fn, last: fn()})
}

// AddLossProbe polls a monotone drop counter every sample interval and
// raises a loss-burst anomaly when it advances.
func (p *Plane) AddLossProbe(name string, fn func() uint64) {
	p.AddCounterProbe(name, "loss-burst", fn)
}

// AddWedgeProbe polls a gauge (held switch outputs, paused links) and
// raises a wedge anomaly when it stays nonzero for two consecutive
// samples — one sample is just backpressure; two is §4.3.1's forever-held
// path at monitoring timescales.
func (p *Plane) AddWedgeProbe(name string, fn func() int) {
	p.probes = append(p.probes, &probe{name: name, gauge: fn})
}

// Start arms the sampling clock.
func (p *Plane) Start() { p.ticker.Start() }

// SetStopAt parks the sampling clock at the given horizon so a campaign's
// quiescence detector still sees the event queue drain (see sim.Ticker).
func (p *Plane) SetStopAt(at sim.Time) { p.ticker.SetStopAt(at) }

// Stop halts sampling and exports every active flow with CauseShutdown.
func (p *Plane) Stop() {
	p.ticker.Stop()
	for _, t := range p.taps {
		if t.flows != nil {
			t.flows.FlushAll()
		}
	}
}

// tick is the sampling pass: flow expiry, detector evaluation, probe polls.
func (p *Plane) tick() {
	now := p.k.Now()
	for _, t := range p.taps {
		if t.flows != nil {
			t.flows.ExpireIdle(now)
		}
	}
	for _, pd := range p.detectors {
		phi := pd.d.Phi(now)
		if !pd.suspected && phi >= pd.d.Threshold() {
			pd.suspected = true
			p.record(Event{Time: now, Kind: EventSuspect, Source: pd.name,
				Detail: "phi", Value: phi})
		} else if pd.suspected && phi < pd.d.Threshold() {
			pd.suspected = false
			p.record(Event{Time: now, Kind: EventRecover, Source: pd.name,
				Detail: "phi", Value: phi})
		}
	}
	for _, pr := range p.probes {
		if pr.counter != nil {
			cur := pr.counter()
			delta := cur - pr.last
			pr.last = cur
			if delta > 0 {
				if !pr.hot {
					pr.hot = true
					p.record(Event{Time: now, Kind: EventAnomaly,
						Source: pr.name, Detail: pr.detail,
						Value: float64(delta)})
				}
			} else {
				pr.hot = false
			}
			continue
		}
		v := pr.gauge()
		if v > 0 {
			pr.streak++
			if pr.streak == 2 && !pr.hot {
				pr.hot = true
				p.record(Event{Time: now, Kind: EventAnomaly,
					Source: pr.name, Detail: "wedge", Value: float64(v)})
			}
		} else {
			pr.streak = 0
			pr.hot = false
		}
	}
}

func (p *Plane) record(e Event) {
	if len(p.events) >= maxEvents {
		p.eventOverflow++
		return
	}
	p.events = append(p.events, e)
}

// Events returns the recorded event log in detection order.
func (p *Plane) Events() []Event { return p.events }

// EventOverflow reports events lost to the maxEvents bound.
func (p *Plane) EventOverflow() uint64 { return p.eventOverflow }

// FirstEventAtOrAfter returns the earliest event with Time >= at.
func (p *Plane) FirstEventAtOrAfter(at sim.Time) (Event, bool) {
	for _, e := range p.events {
		if e.Time >= at {
			return e, true
		}
	}
	return Event{}, false
}

// Ring returns the flow export ring shared by every tap.
func (p *Plane) Ring() *ExportRing { return p.ring }

// Taps returns the attachment-ordered observation points.
func (p *Plane) Taps() []*Tap { return p.taps }

// Ticks reports completed sampling passes.
func (p *Plane) Ticks() uint64 { return p.ticker.Ticks() }

// Summary renders the plane's state for reports: event log, flow records,
// and per-tap totals.
func (p *Plane) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "monitor: %d ticks, %d events", p.Ticks(), len(p.events))
	if p.eventOverflow > 0 {
		fmt.Fprintf(&b, " (+%d dropped)", p.eventOverflow)
	}
	fmt.Fprintf(&b, ", %d flows exported", p.ring.Exported())
	if p.ring.Dropped() > 0 {
		fmt.Fprintf(&b, " (+%d dropped)", p.ring.Dropped())
	}
	b.WriteString("\n")
	for _, e := range p.events {
		fmt.Fprintf(&b, "  event  %v\n", e)
	}
	for _, rec := range p.ring.Records() {
		fmt.Fprintf(&b, "  flow   %-14s %v pkts=%d bytes=%d %v..%v cause=%v\n",
			rec.Tap, rec.Key, rec.Packets, rec.Bytes, rec.First, rec.Last, rec.Cause)
	}
	for _, t := range p.taps {
		bursts, chars, packets, control := t.Stats()
		fmt.Fprintf(&b, "  tap    %-14s bursts=%d chars=%d data=%d other=%d\n",
			t.name, bursts, chars, packets, control)
	}
	return b.String()
}
