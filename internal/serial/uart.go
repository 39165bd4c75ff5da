// Package serial models the fault injector's control path (§3.3): an
// RS-232 UART carries ASCII between the external management system and the
// board; on the board, the communications handler repacks the byte stream
// into the 16-bit SPI frame format consumed by the command decoder, and
// converts the output generator's responses back. The UART itself is
// off-loaded to a separate chip in the paper's design, so it is modeled
// here as its own component with real baud-rate timing — reconfiguring the
// injector over a 115200-baud line visibly costs simulated milliseconds,
// exactly the "slower serial line" the paper leans on in once-mode
// campaigns.
package serial

import (
	"netfi/internal/sim"
)

// ByteSink consumes bytes delivered by a UART.
type ByteSink interface {
	PutByte(b byte)
}

// ByteSinkFunc adapts a function to ByteSink.
type ByteSinkFunc func(b byte)

// PutByte implements ByteSink.
func (f ByteSinkFunc) PutByte(b byte) { f(b) }

// UART is one direction of an asynchronous serial line: 8 data bits, no
// parity, one stop bit (8N1: ten bit times per byte). Bytes queue behind
// each other like a hardware transmit shift register.
//
// The zero value is not usable; construct with NewUART.
type UART struct {
	k        *sim.Kernel
	byteTime sim.Duration
	dst      ByteSink

	busyUntil sim.Time
	sent      uint64

	// Transmit shift queue: the pump delivers q[qPos], reschedules itself
	// one byte time later, and recycles the queue when it drains. One
	// pending kernel event per UART instead of one per queued byte.
	q       []byte
	qPos    int
	pumping bool
	nextAt  sim.Time
}

// DefaultBaud matches the paper's era of RS-232 management links.
const DefaultBaud = 115200

// bitsPerByte is start + 8 data + stop.
const bitsPerByte = 10

// NewUART returns a transmitter at the given baud rate delivering to dst.
// baud <= 0 selects DefaultBaud.
func NewUART(k *sim.Kernel, baud int, dst ByteSink) *UART {
	if baud <= 0 {
		baud = DefaultBaud
	}
	if dst == nil {
		panic("serial: nil destination")
	}
	return &UART{
		k:        k,
		byteTime: sim.Duration(int64(bitsPerByte) * int64(sim.Second) / int64(baud)),
		dst:      dst,
	}
}

// Send queues bytes for transmission; each is delivered to the sink when
// its stop bit completes. It returns when the last byte completes; an
// empty write sends nothing, changes nothing and returns when the line is
// free.
func (u *UART) Send(data []byte) sim.Time {
	start := max(u.k.Now(), u.busyUntil)
	if len(data) == 0 {
		return start
	}
	start += sim.Duration(len(data)) * u.byteTime
	u.busyUntil = start
	u.sent += uint64(len(data))
	u.q = append(u.q, data...)
	if !u.pumping {
		u.pumping = true
		u.nextAt = start - sim.Duration(len(data)-1)*u.byteTime
		u.k.AtArg(u.nextAt, uartDeliver, u)
	}
	return start
}

// uartDeliver is the capture-free pump: deliver the next queued byte and
// reschedule for the one behind it.
func uartDeliver(a any) {
	u := a.(*UART)
	b := u.q[u.qPos]
	u.qPos++
	if u.qPos < len(u.q) {
		u.nextAt += u.byteTime
		u.k.AtArg(u.nextAt, uartDeliver, u)
	} else {
		u.pumping = false
		u.q = u.q[:0]
		u.qPos = 0
	}
	u.dst.PutByte(b)
}

// SendString queues a string.
func (u *UART) SendString(s string) sim.Time { return u.Send([]byte(s)) }

// Sent reports the cumulative byte count.
func (u *UART) Sent() uint64 { return u.sent }

// BusyUntil reports when the transmit shift register drains.
func (u *UART) BusyUntil() sim.Time { return u.busyUntil }
