// Package phy models the physical layer the fault injector taps: full-duplex
// point-to-point links that carry a stream of link-level characters at a
// fixed character period with a propagation delay. Myrinet characters are
// 9 bits wide (a Data/Control flag plus 8 data bits); Fibre Channel code
// groups are 10 bits. Both fit in a Character.
//
// Links deliver chunks ("bursts") of characters rather than one event per
// character so that minute-long campaigns stay tractable, but all timing is
// accounted at character granularity: a burst of n characters occupies the
// transmitter for exactly n character periods.
package phy

import (
	"fmt"

	"netfi/internal/sim"
)

// Character is one link-level code: for Myrinet, bit 8 is the D/C flag
// (1 = data, 0 = control symbol) and bits 7..0 are the payload; for Fibre
// Channel it is a 10-bit code group.
type Character uint16

// Myrinet character constructors and accessors. The D/C bit is separate from
// the 8-bit data path, exactly as in the Myrinet interface design (§4.1).
const dcBit Character = 1 << 8

// DataChar returns the data character carrying byte b (D/C = 1).
func DataChar(b byte) Character { return dcBit | Character(b) }

// ControlChar returns the control character with code b (D/C = 0).
func ControlChar(b byte) Character { return Character(b) }

// IsData reports whether c has the D/C bit set.
func (c Character) IsData() bool { return c&dcBit != 0 }

// Byte returns the low 8 bits of c.
func (c Character) Byte() byte { return byte(c) }

// String renders a character for traces, e.g. "D:3f" or "C:0c".
func (c Character) String() string {
	if c.IsData() {
		return fmt.Sprintf("D:%02x", c.Byte())
	}
	return fmt.Sprintf("C:%02x", c.Byte())
}

// DataChars converts a byte slice to data characters.
func DataChars(b []byte) []Character {
	out := make([]Character, len(b))
	for i, v := range b {
		out[i] = DataChar(v)
	}
	return out
}

// Receiver consumes characters delivered by a link. The slice is owned by
// the receiver after the call: links never touch a delivered buffer again.
// Delivered buffers come from the burst pool, so a receiver that is done
// with the slice when Receive returns may hand it back — to its kernel's
// Pool if it has one, with ReleaseBurst otherwise; receivers that retain the
// slice simply keep it (a pool never reclaims a buffer that was not
// explicitly released). A receiver that releases the burst, as link
// controllers and the injector's ports do, owns it only for the duration of
// the call: whatever it hands on is copied first.
type Receiver interface {
	Receive(chars []Character)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(chars []Character)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(chars []Character) { f(chars) }

var _ Receiver = ReceiverFunc(nil)

// Tap observes a character stream where it enters a receiver, batch by
// batch — the monitoring plane's passive observation point. The Myrinet link
// controllers and the injector's splice ports carry one; taps are strictly
// opt-in, so a receiver with none pays a single nil check per burst and
// keeps its zero-allocation guarantees.
//
// The slice passed to ObserveChars is the receiver's pooled burst: the tap
// must not retain or mutate it — copy what it needs before returning.
// Observation happens before the receiver acts on the burst, so a tap sees
// the stream exactly as the hardware does, including flow-control symbols
// and RESETs.
type Tap interface {
	ObserveChars(now sim.Time, chars []Character)
}

// Link is one direction of a point-to-point physical link. A full-duplex
// cable is a pair of Links. Send serializes a burst at the link's character
// period; the destination receives the whole burst when its last character
// has arrived (serialization time plus propagation delay).
//
// The zero value is not usable; construct with NewLink.
type Link struct {
	k          *sim.Kernel
	pool       *Pool // k's pool, cached so the send path is a field load
	name       string
	charPeriod sim.Duration
	propDelay  sim.Duration
	dst        Receiver
	sink       DeliverySink

	busyUntil sim.Time
	severed   bool

	// Statistics.
	chars        uint64
	bursts       uint64
	severedChars uint64
}

// LinkConfig describes a link's timing.
type LinkConfig struct {
	// Name labels the link in traces and errors.
	Name string
	// CharPeriod is the time to serialize one character. The paper's
	// Myrinet runs at 80 MB/s per direction: 12.5 ns per character.
	CharPeriod sim.Duration
	// PropDelay is the cable propagation delay (about 5 ns/m).
	PropDelay sim.Duration
}

// NewLink returns a link delivering to dst under the given timing.
func NewLink(k *sim.Kernel, cfg LinkConfig, dst Receiver) *Link {
	if cfg.CharPeriod <= 0 {
		panic("phy: CharPeriod must be positive")
	}
	if cfg.PropDelay < 0 {
		panic("phy: PropDelay must be non-negative")
	}
	if dst == nil {
		panic("phy: nil destination")
	}
	return &Link{
		k:          k,
		pool:       PoolOf(k),
		name:       cfg.Name,
		charPeriod: cfg.CharPeriod,
		propDelay:  cfg.PropDelay,
		dst:        dst,
	}
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// CharPeriod returns the serialization time per character.
func (l *Link) CharPeriod() sim.Duration { return l.charPeriod }

// PropDelay returns the propagation delay.
func (l *Link) PropDelay() sim.Duration { return l.propDelay }

// SetDst rewires the link's receiver. Used when inserting the fault injector
// into an existing cable: the segment's receiver becomes the injector port.
func (l *Link) SetDst(dst Receiver) {
	if dst == nil {
		panic("phy: nil destination")
	}
	l.dst = dst
}

// Dst returns the link's current receiver; an inserted device saves it as
// the downstream side of the splice.
func (l *Link) Dst() Receiver { return l.dst }

// SetDeliverySink diverts the link's deliveries: instead of scheduling
// dst.Receive into the link's own kernel, each burst (with its computed
// arrival time) is handed to sink. Sharded fabrics use this to channelize
// cables whose receiver lives on a different kernel — the sink buffers the
// delivery until the next barrier exchange. A nil sink restores direct
// scheduling.
func (l *Link) SetDeliverySink(sink DeliverySink) { l.sink = sink }

// Send transmits a burst. If the transmitter is still serializing a previous
// burst the new one queues behind it (FIFO, contiguous on the wire). Send
// copies chars, so callers may reuse the slice. It returns the time at which
// the last character will have been received by the destination.
func (l *Link) Send(chars []Character) sim.Time {
	if len(chars) == 0 {
		return l.k.Now()
	}
	burst := l.pool.Get(len(chars))
	copy(burst, chars)
	return l.sendOwned(burst)
}

// sendOwned queues a burst the link already owns (a pooled copy).
func (l *Link) sendOwned(burst []Character) sim.Time {
	if l.severed {
		l.severedChars += uint64(len(burst))
		l.pool.Release(burst)
		return l.k.Now()
	}
	start := l.k.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	end := start + sim.Duration(len(burst))*l.charPeriod
	l.busyUntil = end
	arrival := end + l.propDelay
	l.chars += uint64(len(burst))
	l.bursts++
	if l.sink != nil {
		l.sink.Deliver(arrival, l.dst, burst)
	} else {
		l.pool.ScheduleReceive(arrival, l.dst, burst)
	}
	return arrival
}

// SendOne transmits a single character without the caller building a slice;
// flow-control symbols (STOP/GO/GAP) dominate link traffic, so this path
// must not allocate.
func (l *Link) SendOne(c Character) sim.Time {
	burst := l.pool.Get(1)
	burst[0] = c
	return l.sendOwned(burst)
}

// SendPriorityOne transmits a control character that preempts queued data
// at the next character boundary, the way Myrinet interleaves flow-control
// symbols into the stream: it is delivered after its own serialization and
// propagation time, without waiting behind bursts already committed to the
// transmit queue (and without pushing them back — the one-character wire
// occupancy is absorbed into the burst model's granularity).
func (l *Link) SendPriorityOne(c Character) sim.Time {
	if l.severed {
		l.severedChars++
		return l.k.Now()
	}
	burst := l.pool.Get(1)
	burst[0] = c
	arrival := l.k.Now() + l.charPeriod + l.propDelay
	l.chars++
	l.bursts++
	if l.sink != nil {
		l.sink.Deliver(arrival, l.dst, burst)
	} else {
		l.pool.ScheduleReceive(arrival, l.dst, burst)
	}
	return arrival
}

// CountPriority accounts for n one-character SendPriorityOne bursts whose
// deliveries the receiver applied in bulk (a standing STOP's refresh train),
// so Stats stays what n calls would have made it. It is only valid while the
// link is Direct.
func (l *Link) CountPriority(n uint64) {
	l.chars += n
	l.bursts += n
}

// Direct returns the receiver that SendPriorityOne would schedule a delivery
// to on the link's own kernel, or nil when the link is severed or diverted
// to a delivery sink.
func (l *Link) Direct() Receiver {
	if l.severed || l.sink != nil {
		return nil
	}
	return l.dst
}

// SendControl transmits a single control character.
func (l *Link) SendControl(code byte) sim.Time { return l.SendOne(ControlChar(code)) }

// Sever cuts the link: every subsequent burst is discarded at the
// transmitter and counted. Bursts already committed to the wire still
// arrive — light in the pipe — so a severed link drains rather than
// un-happens. Chaos campaigns use this as the cable-cut fault primitive.
func (l *Link) Sever() { l.severed = true }

// SeveredChars reports characters discarded after the cut.
func (l *Link) SeveredChars() uint64 { return l.severedChars }

// BusyUntil reports when the transmitter finishes its current queue.
func (l *Link) BusyUntil() sim.Time { return l.busyUntil }

// Idle reports whether the transmitter has drained.
func (l *Link) Idle() bool { return l.busyUntil <= l.k.Now() }

// Stats reports cumulative characters and bursts sent.
func (l *Link) Stats() (chars, bursts uint64) { return l.chars, l.bursts }

// Throughput reports average payload rate in characters per second between
// simulation start and now. Zero when no time has elapsed.
func (l *Link) Throughput() float64 {
	if l.k.Now() == 0 {
		return 0
	}
	return float64(l.chars) / l.k.Now().Seconds()
}

// Cable bundles the two directions of a full-duplex link between endpoints
// conventionally called "left" and "right" (matching the paper's
// bi-directional injector, which corrupts "left going" and "right going"
// data independently).
type Cable struct {
	LeftToRight *Link // carries data from the left endpoint to the right
	RightToLeft *Link // carries data from the right endpoint to the left
}

// Sever cuts both directions of the cable.
func (c *Cable) Sever() {
	c.LeftToRight.Sever()
	c.RightToLeft.Sever()
}

// NewCable builds a full-duplex cable with identical timing in both
// directions, delivering to the given receivers.
func NewCable(k *sim.Kernel, cfg LinkConfig, leftEnd, rightEnd Receiver) *Cable {
	l2r := cfg
	l2r.Name = cfg.Name + ":l2r"
	r2l := cfg
	r2l.Name = cfg.Name + ":r2l"
	return &Cable{
		LeftToRight: NewLink(k, l2r, rightEnd),
		RightToLeft: NewLink(k, r2l, leftEnd),
	}
}
