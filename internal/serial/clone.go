package serial

import "netfi/internal/sim"

// Fork support (see sim/clone.go). A clone is a struct copy; what never
// crosses a fork is listed in the clone. A UART's sink is wiring: the
// console (or other owner) supplies the new-world sink at clone time, the
// same way the constructor did.

// Clone forks the transmitter with a new-world sink.
func (u *UART) Clone(m *sim.Mapper, dst ByteSink) *UART {
	u2 := sim.Counterpart(m, u)
	q := u2.q
	*u2 = *u
	u2.k, u2.dst = m.Kernel(), dst
	u2.q = append(q[:0], u.q...)
	return u2
}

// Clone forks the console: both UARTs, the SPI assembler, the command
// decoder, and the response buffer, wired around the new-world objects the
// way NewConsole wires them.
func (c *Console) Clone(m *sim.Mapper) *Console {
	c2 := sim.Counterpart(m, c)
	rxBuf, lines, emitFn := c2.rxBuf, c2.lines, c2.emitFn
	*c2 = *c
	c2.k = m.Kernel()
	c2.rxBuf = append(rxBuf[:0], c.rxBuf...)
	c2.lines = append(lines[:0], c.lines...)
	if emitFn == nil {
		emitFn = c2.emit
	}
	c2.emitFn = emitFn
	c2.dec = c.dec.Clone(m)
	c2.toBoard = c.toBoard.Clone(m, (*boardEnd)(c2))
	c2.toHost = c.toHost.Clone(m, (*hostEnd)(c2))
	c2.dec.SetOutput(c2.emitFn)
	return c2
}
