package myrinet

import (
	"fmt"

	"netfi/internal/bitstream"
	"netfi/internal/phy"
)

// MAC is a 48-bit Ethernet-style address identifying a Myrinet port
// (§4.3.3: "48-bit Ethernet addresses corresponding to individual Myrinet
// ports").
type MAC [6]byte

// String formats the address in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// NodeID is the 64-bit unique address of an MCP. The MCP with the highest
// NodeID on a network is responsible for mapping it (§4.1).
type NodeID uint64

// Packet types carried in the 4-byte type field of every Myrinet packet.
// The experiments of §4.3.2 corrupt the 16-bit designators 0x0004 (data)
// and 0x0005 (mapping); the field is 4 bytes on the wire with the high two
// bytes zero.
const (
	TypeData    uint16 = 0x0004
	TypeMapping uint16 = 0x0005
)

// Route byte semantics (§4.3.2, "Source route corruption"): a byte with the
// MSB set routes the packet through a switch (low bits select the output
// port); the final byte has the MSB clear and is consumed by the destination
// interface. A destination interface receiving a leading byte with the MSB
// set must consume the packet and handle it as an error.
const (
	// RouteSwitchFlag marks a route byte addressed to a switch.
	RouteSwitchFlag byte = 0x80
	// RoutePortMask extracts the output port from a switch route byte.
	RoutePortMask byte = 0x7F
	// RouteFinal is the conventional final route byte consumed by the
	// destination interface (MSB clear).
	RouteFinal byte = 0x00
)

// SwitchHop builds the route byte selecting output port p at a switch.
func SwitchHop(p int) byte { return RouteSwitchFlag | byte(p)&RoutePortMask }

// Packet is the in-memory form of a Myrinet packet: an arbitrarily long
// source route, a 4-byte packet type, an arbitrarily long payload, and a
// single trailing CRC-8 byte (Fig. 6). The CRC is not stored here; it is
// computed on encode and verified on decode.
type Packet struct {
	// Route holds the remaining source-route bytes. Each switch consumes
	// the first byte and recomputes the trailing CRC.
	Route []byte
	// Type is the 16-bit packet-type designator (wire format pads it to
	// 4 bytes with leading zeros).
	Type uint16
	// TypeHigh carries the two high-order bytes of the 4-byte type field,
	// zero in every packet the paper describes; kept so that corruption of
	// those bytes survives a decode/encode round trip.
	TypeHigh uint16
	// Payload is the packet body.
	Payload []byte
}

// wireLen is the length of the packet's wire image: route, 4-byte type,
// payload, CRC-8.
func (p *Packet) wireLen() int { return len(p.Route) + 4 + len(p.Payload) + 1 }

// Encode returns the complete wire image: route, type, payload, CRC-8.
func (p *Packet) Encode() []byte {
	wire := make([]byte, 0, p.wireLen())
	wire = append(wire, p.Route...)
	wire = append(wire, byte(p.TypeHigh>>8), byte(p.TypeHigh), byte(p.Type>>8), byte(p.Type))
	wire = append(wire, p.Payload...)
	return append(wire, bitstream.CRC8(wire))
}

// EncodeChars returns the packet as link characters followed by the
// packet-terminating GAP control symbol, ready for transmission (Fig. 8).
func (p *Packet) EncodeChars() []phy.Character {
	return p.putChars(make([]phy.Character, p.wireLen()+1))
}

// putChars encodes the packet into dst, which holds exactly wireLen()+1
// characters, and returns it.
func (p *Packet) putChars(dst []phy.Character) []phy.Character {
	e := charEncoder{dst: dst}
	e.header(p.Route, p.TypeHigh, p.Type)
	e.write(p.Payload)
	return e.finish()
}

// charEncoder writes a packet's wire image straight into a character buffer
// as data characters, accumulating the trailing CRC-8 on the way, so a
// packet is encoded once into the buffer the link controller streams from.
type charEncoder struct {
	dst []phy.Character
	n   int
	crc byte
}

func (e *charEncoder) write(b []byte) {
	dst := e.dst[e.n : e.n+len(b)]
	crc := e.crc
	for i, v := range b {
		dst[i] = phy.DataChar(v)
		crc = bitstream.CRC8Update(crc, v)
	}
	e.crc = crc
	e.n += len(b)
}

// header writes the source route and the 4-byte type field.
func (e *charEncoder) header(route []byte, typeHigh, typ uint16) {
	e.write(route)
	t := [4]byte{byte(typeHigh >> 8), byte(typeHigh), byte(typ >> 8), byte(typ)}
	e.write(t[:])
}

// finish appends the CRC-8 and the terminating GAP; dst must have exactly
// two characters left.
func (e *charEncoder) finish() []phy.Character {
	e.dst[e.n] = phy.DataChar(e.crc)
	e.dst[e.n+1] = charGap
	return e.dst[:e.n+2]
}

// RouteTo builds the source route for a path: one switch hop byte per entry
// in ports, then the final byte consumed by the destination interface.
func RouteTo(ports ...int) []byte {
	return AppendRoute(make([]byte, 0, len(ports)+1), ports...)
}

// AppendRoute appends RouteTo(ports...) to buf and returns the extended
// slice.
func AppendRoute(buf []byte, ports ...int) []byte {
	for _, p := range ports {
		buf = append(buf, SwitchHop(p))
	}
	return append(buf, RouteFinal)
}
