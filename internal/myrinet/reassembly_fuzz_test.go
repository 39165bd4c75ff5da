package myrinet

import (
	"bytes"
	"errors"
	"testing"

	"netfi/internal/bitstream"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// fuzzMaxPacket keeps oversize streams within a fuzzer's reach.
const fuzzMaxPacket = 64

// fuzzMAC is the address of the interface under test.
var fuzzMAC = MAC{0x02, 0, 0, 0, 0, 0x42}

// Reassembly stream tokens: two input bytes each, an opcode and a value.
const (
	tokCRC   = 4 // data character carrying the CRC-8 of the packet so far
	tokGap   = 5 // GAP
	tokCtl   = 6 // control character with the value's code
	tokBurst = 7 // burst boundary
	// opcodes 0..3: data character carrying the value
)

// reassemblyTokens encodes wire bytes as a token stream ending in GAP, a
// corpus entry the fuzzer mutates.
func reassemblyTokens(wire []byte) []byte {
	var toks []byte
	for _, b := range wire {
		toks = append(toks, 0, b)
	}
	return append(toks, tokGap, 0, tokBurst, 0)
}

// reassemblyDelivery is one payload the data handler received.
type reassemblyDelivery struct {
	src     MAC
	payload []byte
}

// reassemblyOracle classifies the packets of a character stream the way the
// interface must, with DecodePacket as the reference decoder.
type reassemblyOracle struct {
	framed    int
	drops     map[DropReason]uint64
	delivered []reassemblyDelivery
	toMCP     uint64 // mapping packets the MCP parses further

	raw       []byte
	inPacket  bool
	oversized bool
}

func (o *reassemblyOracle) data(b byte) {
	o.inPacket = true
	if len(o.raw) >= fuzzMaxPacket {
		o.oversized = true
		return
	}
	o.raw = append(o.raw, b)
}

func (o *reassemblyOracle) gap() {
	if !o.inPacket {
		return
	}
	o.framed++
	o.classify()
	o.raw, o.inPacket, o.oversized = o.raw[:0], false, false
}

func (o *reassemblyOracle) classify() {
	if o.oversized {
		o.drops[DropOversize]++
		return
	}
	p, err := DecodePacket(o.raw, 1)
	switch {
	case errors.Is(err, ErrTooShort):
		o.drops[DropTruncated]++
	case o.raw[0]&RouteSwitchFlag != 0:
		o.drops[DropRouteMSB]++
	case errors.Is(err, ErrBadCRC):
		o.drops[DropCRC]++
	case p.TypeHigh != 0:
		o.drops[DropUnknownType]++
	case p.Type == TypeMapping && len(p.Payload) == 0:
		o.drops[DropTruncated]++
	case p.Type == TypeMapping && p.Payload[0] != mapSubScout && p.Payload[0] != mapSubReply && p.Payload[0] != mapSubTable:
		o.drops[DropUnknownType]++
	case p.Type == TypeMapping:
		o.toMCP++
	case p.Type != TypeData:
		o.drops[DropUnknownType]++
	case len(p.Payload) < dataHeaderLen:
		o.drops[DropTruncated]++
	case MAC(p.Payload[0:6]) != fuzzMAC:
		o.drops[DropMisaddressed]++
	default:
		o.delivered = append(o.delivered, reassemblyDelivery{MAC(p.Payload[6:12]), p.Payload[dataHeaderLen:]})
	}
}

// FuzzInterfaceReassembly feeds arbitrary streams of data, control and GAP
// characters, cut at arbitrary burst boundaries, into an interface's link
// controller. The parser must never panic, must deliver exactly the payloads
// DecodePacket finds in the same bytes, and must account for every framed
// packet as a delivery or a drop by cause.
func FuzzInterfaceReassembly(f *testing.F) {
	data := &Packet{Route: []byte{RouteFinal}, Type: TypeData,
		Payload: append(append(fuzzMAC[:], 0x02, 0, 0, 0, 0, 0x01), "payload"...)}
	f.Add(reassemblyTokens(data.Encode()))
	misaddressed := *data
	misaddressed.Payload = append([]byte{0x02, 0, 0, 0, 0, 0x07}, data.Payload[6:]...)
	f.Add(reassemblyTokens(misaddressed.Encode()))
	mapping := &Packet{Route: []byte{RouteFinal}, Type: TypeMapping, Payload: []byte{0x01, 2, 3}}
	f.Add(reassemblyTokens(mapping.Encode()))
	bad := data.Encode()
	bad[len(bad)-1] ^= 0x5A
	f.Add(append(reassemblyTokens(bad), reassemblyTokens(data.Encode())...))
	f.Add([]byte{0, 1, tokBurst, 0, 1, 2, tokCtl, SymStop, 2, 3, tokCRC, 0, tokGap, 0, tokGap, 0})
	f.Add(append(bytes.Repeat([]byte{0, 0x55}, fuzzMaxPacket+1), tokGap, 0))

	f.Fuzz(func(t *testing.T, toks []byte) {
		if len(toks) > 4096 {
			return
		}
		k := sim.NewKernel(1)
		pool := phy.PoolOf(k)
		ifc := NewInterface(k, InterfaceConfig{Name: "fuzz", MAC: fuzzMAC, ID: 1, MaxPacket: fuzzMaxPacket})
		lc := ifc.AttachLink(phy.NewLink(k, DefaultLinkConfig("out"), phy.ReceiverFunc(pool.Release))).(*LinkController)
		var got []reassemblyDelivery
		ifc.SetDataHandler(func(src MAC, payload []byte) {
			// The payload is valid only for the call: keep a copy.
			got = append(got, reassemblyDelivery{src, append([]byte(nil), payload...)})
		})
		o := &reassemblyOracle{drops: make(map[DropReason]uint64)}

		var burst []phy.Character
		var crc byte
		flush := func() {
			if len(burst) > 0 {
				b := pool.Get(len(burst))
				copy(b, burst)
				lc.Receive(b)
				burst = burst[:0]
			}
		}
		for i := 0; i+1 < len(toks); i += 2 {
			op, v := toks[i]%8, toks[i+1]
			switch op {
			case tokCRC:
				v = crc
				fallthrough
			case 0, 1, 2, 3:
				burst = append(burst, phy.DataChar(v))
				crc = bitstream.CRC8Update(crc, v)
				o.data(v)
			case tokGap:
				v = SymGap
				fallthrough
			case tokCtl:
				burst = append(burst, phy.ControlChar(v))
				if DecodeControl(v) == SymbolGap {
					crc = 0
					o.gap()
				}
			case tokBurst:
				flush()
			}
			// A burst is buffered whole before the interface drains it:
			// keep it inside the slack buffer.
			if len(burst) == DefaultSlackCapacity {
				flush()
			}
		}
		flush()

		c := ifc.Counters()
		if c.OverflowChars != 0 {
			t.Fatalf("slack buffer overflowed by %d characters", c.OverflowChars)
		}
		if len(got) != len(o.delivered) || c.PacketsReceived != uint64(len(got)) {
			t.Fatalf("delivered %d (counted %d), oracle %d", len(got), c.PacketsReceived, len(o.delivered))
		}
		for i, d := range got {
			if d.src != o.delivered[i].src || !bytes.Equal(d.payload, o.delivered[i].payload) {
				t.Fatalf("delivery %d: got %v %x, oracle %v %x", i, d.src, d.payload, o.delivered[i].src, o.delivered[i].payload)
			}
		}
		// The MCP may drop a mapping packet it parses as truncated.
		mcpDrops := c.Drops[DropTruncated] - o.drops[DropTruncated]
		if mcpDrops > o.toMCP {
			t.Fatalf("truncated drops %d, oracle %d with %d mapping packets", c.Drops[DropTruncated], o.drops[DropTruncated], o.toMCP)
		}
		for r, n := range o.drops {
			if r != DropTruncated && c.Drops[r] != n {
				t.Fatalf("%v drops %d, oracle %d", r, c.Drops[r], n)
			}
		}
		var dropped uint64
		for i, n := range c.Drops {
			if r := DropReason(i); r != DropTruncated && n != o.drops[r] {
				t.Fatalf("%v drops %d, oracle %d", r, n, o.drops[r])
			}
			dropped += n
		}
		if accounted := dropped - mcpDrops + uint64(len(got)) + o.toMCP; accounted != uint64(o.framed) {
			t.Fatalf("drops %d + deliveries %d + mapping %d - MCP drops %d != %d packets framed",
				dropped, len(got), o.toMCP, mcpDrops, o.framed)
		}
	})
}
