package myrinet

import (
	"bytes"
	"errors"
	"math/bits"
	"testing"
	"testing/quick"

	"netfi/internal/bitstream"
)

func TestPacketEncodeLayout(t *testing.T) {
	p := &Packet{
		Route:   []byte{0x81, 0x00},
		Type:    TypeData,
		Payload: []byte{0xDE, 0xAD},
	}
	wire := p.Encode()
	// route(2) + type(4) + payload(2) + crc(1)
	if len(wire) != 9 {
		t.Fatalf("wire length = %d, want 9", len(wire))
	}
	want := []byte{0x81, 0x00, 0x00, 0x00, 0x00, 0x04, 0xDE, 0xAD}
	if !bytes.Equal(wire[:8], want) {
		t.Errorf("wire = %x, want prefix %x", wire, want)
	}
	if wire[8] != bitstream.CRC8(want) {
		t.Errorf("crc = %#02x, want %#02x", wire[8], bitstream.CRC8(want))
	}
}

func TestPacketEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(route []byte, typ uint16, payload []byte) bool {
		if len(route) == 0 {
			route = []byte{RouteFinal}
		}
		if len(route) > 8 {
			route = route[:8]
		}
		p := &Packet{Route: route, Type: typ, Payload: payload}
		got, err := DecodePacket(p.Encode(), len(route))
		if err != nil {
			return false
		}
		return bytes.Equal(got.Route, route) &&
			got.Type == typ &&
			got.TypeHigh == 0 &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodePacketBadCRC(t *testing.T) {
	p := &Packet{Route: []byte{RouteFinal}, Type: TypeData, Payload: []byte("hi")}
	wire := p.Encode()
	wire[3] ^= 0x10 // corrupt a type byte without fixing the CRC
	_, err := DecodePacket(wire, 1)
	if !errors.Is(err, ErrBadCRC) {
		t.Errorf("err = %v, want ErrBadCRC", err)
	}
}

func TestDecodePacketTooShort(t *testing.T) {
	if _, err := DecodePacket([]byte{1, 2, 3}, 1); !errors.Is(err, ErrTooShort) {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
}

func TestDecodePreservesCorruptTypeHigh(t *testing.T) {
	// A corrupted high half of the 4-byte type field must survive decode
	// so interfaces can reject it as unknown.
	p := &Packet{Route: []byte{RouteFinal}, TypeHigh: 0x00FF, Type: TypeData}
	got, err := DecodePacket(p.Encode(), 1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.TypeHigh != 0x00FF {
		t.Errorf("TypeHigh = %#04x, want 0x00FF", got.TypeHigh)
	}
}

func TestRouteTo(t *testing.T) {
	r := RouteTo(3, 5)
	want := []byte{0x83, 0x85, 0x00}
	if !bytes.Equal(r, want) {
		t.Errorf("RouteTo(3,5) = %x, want %x", r, want)
	}
}

func TestSwitchHopMasksPort(t *testing.T) {
	if SwitchHop(3) != 0x83 {
		t.Errorf("SwitchHop(3) = %#02x", SwitchHop(3))
	}
	if SwitchHop(0x1FF) != 0xFF {
		t.Errorf("SwitchHop overflow = %#02x, want 0xFF", SwitchHop(0x1FF))
	}
}

func TestEncodeCharsEndsWithGap(t *testing.T) {
	p := &Packet{Route: []byte{RouteFinal}, Type: TypeData, Payload: []byte{1}}
	chars := p.EncodeChars()
	last := chars[len(chars)-1]
	if last.IsData() || DecodeControl(last.Byte()) != SymbolGap {
		t.Errorf("last character = %v, want GAP", last)
	}
	for _, c := range chars[:len(chars)-1] {
		if !c.IsData() {
			t.Errorf("non-data character %v inside packet", c)
		}
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("String() = %q", got)
	}
}

func TestDecodeControlRules(t *testing.T) {
	cases := []struct {
		code byte
		want Symbol
	}{
		{SymIdle, SymbolIdle},
		{SymGo, SymbolGo},
		{SymGap, SymbolGap},
		{SymStop, SymbolStop},
		{0x08, SymbolStop},      // single 1->0 fault still recognized (paper)
		{0x02, SymbolGo},        // single 1->0 fault still recognized (paper)
		{SymReset, SymbolReset}, // recovery layer's forward reset
		{0x06, SymbolUnknown},
		{0xFF, SymbolUnknown},
	}
	for _, c := range cases {
		if got := DecodeControl(c.code); got != c.want {
			t.Errorf("DecodeControl(%#02x) = %v, want %v", c.code, got, c.want)
		}
	}
}

func TestControlSymbolHammingDistance(t *testing.T) {
	// "There is a Hamming distance of at least two between any two
	// control symbols" (§4.3.1).
	syms := []byte{SymGo, SymGap, SymStop, SymReset}
	for i := 0; i < len(syms); i++ {
		for j := i + 1; j < len(syms); j++ {
			d := bits.OnesCount32(uint32(syms[i] ^ syms[j]))
			if d < 2 {
				t.Errorf("distance(%#02x,%#02x) = %d, want >= 2", syms[i], syms[j], d)
			}
		}
	}
}

func TestSymbolStringAndCode(t *testing.T) {
	for _, s := range []Symbol{SymbolIdle, SymbolGo, SymbolGap, SymbolStop} {
		if DecodeControl(s.Code()) != s {
			t.Errorf("round trip failed for %v", s)
		}
	}
	if SymbolStop.String() != "STOP" || SymbolGap.String() != "GAP" {
		t.Error("symbol mnemonics wrong")
	}
}

// Errors returned by Decode.
var (
	ErrTooShort = errors.New("myrinet: packet shorter than type+CRC")
	ErrBadCRC   = errors.New("myrinet: CRC-8 mismatch")
)

// DecodePacket parses wire bytes (route+type+payload+CRC) as seen by a
// destination interface, i.e. with routeLen bytes of source route remaining.
// It verifies the trailing CRC-8 and returns ErrBadCRC on mismatch; the
// packet is still returned for inspection by monitors.
func DecodePacket(wire []byte, routeLen int) (*Packet, error) {
	if len(wire) < routeLen+5 { // route + 4-byte type + CRC
		return nil, ErrTooShort
	}
	body := wire[:len(wire)-1]
	crc := wire[len(wire)-1]
	p := &Packet{
		Route:    append([]byte(nil), body[:routeLen]...),
		TypeHigh: uint16(body[routeLen])<<8 | uint16(body[routeLen+1]),
		Type:     uint16(body[routeLen+2])<<8 | uint16(body[routeLen+3]),
		Payload:  append([]byte(nil), body[routeLen+4:]...),
	}
	if bitstream.CRC8(body) != crc {
		return p, ErrBadCRC
	}
	return p, nil
}
