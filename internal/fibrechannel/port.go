package fibrechannel

import (
	"netfi/internal/enc8b10b"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Ordered sets are four code groups beginning with K28.5. The three bytes
// after the comma identify the set; the port recognizes these four.
const (
	k285 = 0xBC
	// Second bytes distinguishing the sets (simplified FC-PH forms).
	osIdleB2  = 0x95 // D21.4 ... IDLE
	osRRdyB2  = 0x35 // D21.1 ... R_RDY (returns one BB credit)
	osSOFB2   = 0xB5 // D21.5 ... SOFn3 (start of frame)
	osEOFB2   = 0xB6 // D22.5 ... EOFn (end of frame)
	osFillB34 = 0xB5 // filler for the 3rd/4th code groups
)

// OrderedSet identifies a decoded ordered set.
type OrderedSet int

// Recognized ordered sets. Unknown means the four-group sequence did not
// parse (e.g. it was corrupted in flight).
const (
	OSUnknown OrderedSet = iota
	OSIdle
	OSRRdy
	OSSOF
	OSEOF
)

// String returns the ordered-set mnemonic.
func (o OrderedSet) String() string {
	switch o {
	case OSIdle:
		return "IDLE"
	case OSRRdy:
		return "R_RDY"
	case OSSOF:
		return "SOF"
	case OSEOF:
		return "EOF"
	default:
		return "UNKNOWN"
	}
}

func orderedSetBytes(o OrderedSet) [4]byte {
	switch o {
	case OSRRdy:
		return [4]byte{k285, osRRdyB2, osFillB34, osFillB34}
	case OSSOF:
		return [4]byte{k285, osSOFB2, osFillB34, osFillB34}
	case OSEOF:
		return [4]byte{k285, osEOFB2, osFillB34, osFillB34}
	default:
		return [4]byte{k285, osIdleB2, osFillB34, osFillB34}
	}
}

func classifySet(b2 byte) OrderedSet {
	switch b2 {
	case osIdleB2:
		return OSIdle
	case osRRdyB2:
		return OSRRdy
	case osSOFB2:
		return OSSOF
	case osEOFB2:
		return OSEOF
	default:
		return OSUnknown
	}
}

// PortStats counts port events.
type PortStats struct {
	FramesSent      uint64
	FramesReceived  uint64
	CRCDrops        uint64
	CodeViolations  uint64
	DisparityErrors uint64
	TruncatedFrames uint64
	RRdySent        uint64
	RRdyReceived    uint64
	CreditStallTime sim.Duration
	UnknownSets     uint64
}

// NPort is one end of a point-to-point FC link. It encodes frames into
// 8b/10b code groups carried as 10-bit phy characters, decodes the incoming
// stream, and runs buffer-to-buffer credit: each transmitted frame consumes
// one credit; the receiver returns an R_RDY when it frees the buffer.
//
// The zero value is not usable; construct with NewNPort.
type NPort struct {
	k    *sim.Kernel
	pool *phy.Pool // k's burst pool; received bursts are released here
	name string
	addr Address
	out  *phy.Link

	// Transmit side.
	encRD   enc8b10b.RD
	credits int
	txq     []*Frame
	stall   sim.Time // when the port ran out of credit

	// Receive side.
	decRD    enc8b10b.RD
	setBuf   []byte // pending code-group bytes of an ordered set
	inFrame  bool
	frameBuf []byte

	onFrame func(*Frame)
	stats   PortStats
}

// NPortConfig parameterizes a port.
type NPortConfig struct {
	// Name labels the port.
	Name string
	// Addr is the 24-bit N_Port identifier.
	Addr Address
}

// portCredits is a port's initial buffer-to-buffer credit.
const portCredits = 4

// recvDelay is the buffer-hold time before R_RDY returns.
const recvDelay = sim.Microsecond

// NewNPort builds a port transmitting on out.
func NewNPort(k *sim.Kernel, cfg NPortConfig, out *phy.Link) *NPort {
	return &NPort{
		k:       k,
		pool:    phy.PoolOf(k),
		name:    cfg.Name,
		addr:    cfg.Addr,
		out:     out,
		encRD:   enc8b10b.RDMinus,
		decRD:   enc8b10b.RDMinus,
		credits: portCredits,
	}
}

// Name returns the port's label.
func (p *NPort) Name() string { return p.name }

// Addr returns the port's identifier.
func (p *NPort) Addr() Address { return p.addr }

// Stats returns a copy of the port counters.
func (p *NPort) Stats() PortStats { return p.stats }

// Credits reports the available buffer-to-buffer credit.
func (p *NPort) Credits() int { return p.credits }

// SetFrameHandler registers the upper-layer delivery callback.
func (p *NPort) SetFrameHandler(fn func(*Frame)) { p.onFrame = fn }

// Send queues a frame; it transmits when credit allows.
func (p *NPort) Send(f *Frame) {
	p.txq = append(p.txq, f)
	p.pump()
}

func (p *NPort) pump() {
	for len(p.txq) > 0 && p.credits > 0 {
		f := p.txq[0]
		p.txq = p.txq[1:]
		p.credits--
		p.transmit(f)
	}
	if len(p.txq) > 0 && p.stall == 0 {
		p.stall = p.k.Now()
	}
}

// transmit puts SOF + encoded frame + EOF on the wire.
func (p *NPort) transmit(f *Frame) {
	body := f.Encode()
	chars := make([]phy.Character, 0, len(body)+8)
	chars = p.appendSet(chars, orderedSetBytes(OSSOF))
	for _, b := range body {
		code, next, _ := enc8b10b.Encode(b, false, p.encRD)
		p.encRD = next
		chars = append(chars, phy.Character(code))
	}
	chars = p.appendSet(chars, orderedSetBytes(OSEOF))
	p.out.Send(chars)
	p.stats.FramesSent++
}

// appendSet encodes an ordered set: K28.5 then three data groups.
func (p *NPort) appendSet(chars []phy.Character, set [4]byte) []phy.Character {
	code, next, _ := enc8b10b.Encode(set[0], true, p.encRD)
	p.encRD = next
	chars = append(chars, phy.Character(code))
	for _, b := range set[1:] {
		code, next, _ = enc8b10b.Encode(b, false, p.encRD)
		p.encRD = next
		chars = append(chars, phy.Character(code))
	}
	return chars
}

// sendRRdy returns one buffer-to-buffer credit to the remote.
func (p *NPort) sendRRdy() {
	chars := p.appendSet(nil, orderedSetBytes(OSRRdy))
	p.out.Send(chars)
	p.stats.RRdySent++
}

// Receive implements phy.Receiver: the incoming 10-bit code-group stream.
func (p *NPort) Receive(chars []phy.Character) {
	for _, c := range chars {
		res, next := enc8b10b.Decode(uint16(c), p.decRD)
		p.decRD = next
		switch {
		case res.Invalid:
			p.stats.CodeViolations++
			p.abortFrame()
			continue
		case res.DisparityError:
			p.stats.DisparityErrors++
			p.abortFrame()
			continue
		}
		if res.IsK && res.Byte == k285 {
			// Start of an ordered set; any partial set is discarded.
			p.setBuf = p.setBuf[:0]
			p.setBuf = append(p.setBuf, res.Byte)
			continue
		}
		if len(p.setBuf) > 0 {
			p.setBuf = append(p.setBuf, res.Byte)
			if len(p.setBuf) == 4 {
				p.handleSet(classifySet(p.setBuf[1]))
				p.setBuf = p.setBuf[:0]
			}
			continue
		}
		if p.inFrame {
			p.frameBuf = append(p.frameBuf, res.Byte)
			if len(p.frameBuf) > HeaderLen+MaxPayload+4 {
				p.stats.TruncatedFrames++
				p.abortFrame()
			}
		}
		// Data outside a frame and outside an ordered set: line noise,
		// ignored.
	}
	// Every code group was decoded into the port's own buffers.
	p.pool.Release(chars)
}

// abortFrame drops an in-progress frame (code violation mid-frame).
func (p *NPort) abortFrame() {
	if p.inFrame {
		p.inFrame = false
		p.frameBuf = nil
		p.stats.TruncatedFrames++
	}
	p.setBuf = p.setBuf[:0]
}

func (p *NPort) handleSet(os OrderedSet) {
	switch os {
	case OSSOF:
		p.inFrame = true
		p.frameBuf = p.frameBuf[:0]
	case OSEOF:
		if !p.inFrame {
			return
		}
		p.inFrame = false
		raw := append([]byte(nil), p.frameBuf...)
		p.frameBuf = p.frameBuf[:0]
		p.completeFrame(raw)
	case OSRRdy:
		p.stats.RRdyReceived++
		if p.credits < portCredits {
			p.credits++
		}
		if p.stall != 0 {
			p.stats.CreditStallTime += p.k.Now() - p.stall
			p.stall = 0
		}
		p.pump()
	case OSIdle:
		// No action.
	default:
		p.stats.UnknownSets++
	}
}

func (p *NPort) completeFrame(raw []byte) {
	f, err := DecodeFrame(raw)
	// The buffer is consumed either way: return credit after the hold
	// time.
	p.k.After(recvDelay, p.sendRRdy)
	if err != nil {
		p.stats.CRCDrops++
		return
	}
	if f.Header.DID != p.addr {
		// Point-to-point: misdirected frames are dropped silently.
		return
	}
	p.stats.FramesReceived++
	if p.onFrame != nil {
		p.onFrame(f)
	}
}

var _ phy.Receiver = (*NPort)(nil)
