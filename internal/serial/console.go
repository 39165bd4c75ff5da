package serial

import (
	"strings"

	"netfi/internal/core"
	"netfi/internal/sim"
)

// Console is the external management system's end of the control path: it
// owns both UART directions, the on-board SPI assembler, and the wiring
// into the device's command decoder and output generator. NFTAPE-style
// campaign frameworks drive the injector through a Console, paying real
// serial-line time for every reconfiguration.
//
// The zero value is not usable; construct with NewConsole.
type Console struct {
	k   *sim.Kernel
	dec *core.CommandDecoder

	toBoard *UART
	toHost  *UART
	spi     Assembler

	rxBuf []byte
	lines []string

	// emitFn is emit bound to this console, the decoder's output: made
	// once per console, so a fork into a used world rewires it for free.
	emitFn func(b byte)
}

// boardEnd and hostEnd are the console as its two UARTs' sinks. A *Console
// converts to either without allocating, which is what lets a fork rewire
// the UARTs for nothing.
type (
	boardEnd Console
	hostEnd  Console
)

func (c *boardEnd) PutByte(b byte) { (*Console)(c).fromHost(b) }
func (c *hostEnd) PutByte(b byte)  { (*Console)(c).receive(b) }

// NewConsole wires a console to dev at the given baud rate (0 selects
// 115200).
func NewConsole(k *sim.Kernel, dev *core.Device, baud int) *Console {
	c := &Console{k: k, dec: core.NewCommandDecoder(dev)}
	c.toBoard = NewUART(k, baud, (*boardEnd)(c))
	c.toHost = NewUART(k, baud, (*hostEnd)(c))
	c.emitFn = c.emit
	c.dec.SetOutput(c.emitFn)
	return c
}

// fromHost is the host -> board UART's sink: bytes arrive at the
// communications handler, which packs them into SPI frames for the command
// decoder.
func (c *Console) fromHost(b byte) {
	var frame [1]Frame
	var payload [1]byte
	for _, p := range c.spi.Unpack(payload[:0], c.spi.Pack(frame[:0], []byte{b})) {
		c.dec.InputByte(p)
	}
}

// emit is the decoder's output: board -> host bytes cross the same path in
// reverse.
func (c *Console) emit(b byte) { c.toHost.Send([]byte{b}) }

// Send queues a command line for transmission; the response arrives later
// in simulated time (see Responses). A missing line terminator is queued
// right behind the line, as if it had been part of it.
func (c *Console) Send(cmd string) {
	c.toBoard.SendString(cmd)
	if !strings.HasSuffix(cmd, "\n") {
		c.toBoard.SendString("\n")
	}
}

// DrainedAt reports when both serial directions go quiet: a command's
// response is on the host-bound line only once the command has crossed to
// the board, so callers waiting for an answer run to this time until it
// stops moving.
func (c *Console) DrainedAt() sim.Time { return max(c.toBoard.BusyUntil(), c.toHost.BusyUntil()) }

// receive assembles response lines from the board. A line equal to the one
// before it (a run of "OK"s) shares that line's string.
func (c *Console) receive(b byte) {
	if b != '\n' {
		c.rxBuf = append(c.rxBuf, b)
		return
	}
	if n := len(c.lines); n > 0 && c.lines[n-1] == string(c.rxBuf) {
		c.lines = append(c.lines, c.lines[n-1])
	} else {
		c.lines = append(c.lines, string(c.rxBuf))
	}
	c.rxBuf = c.rxBuf[:0]
}

// Responses returns every response line received so far.
func (c *Console) Responses() []string { return c.lines }

// LastResponse returns the most recent response line, or "".
func (c *Console) LastResponse() string {
	if len(c.lines) == 0 {
		return ""
	}
	return c.lines[len(c.lines)-1]
}
