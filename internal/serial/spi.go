package serial

// SPI framing (§3.3): the communications handler "assembles data in the
// 16-bit SPI protocol format from 8-bit ASCII codes". Each 16-bit frame
// carries one payload byte in the low half and a tag in the high half; the
// tag distinguishes command-stream bytes from board status and gives the
// frame the self-describing shape a hardware FSM can route without a
// separate strobe line.

// SPI frame tags.
const (
	// TagData marks a frame carrying one command/response byte.
	TagData byte = 0xA5
	// TagStatus marks a board-status frame (low half = status code).
	TagStatus byte = 0x5A
)

// Frame is one 16-bit SPI transfer.
type Frame uint16

// NewDataFrame wraps one payload byte.
func NewDataFrame(b byte) Frame { return Frame(uint16(TagData)<<8 | uint16(b)) }

// Tag returns the frame's high-half tag.
func (f Frame) Tag() byte { return byte(f >> 8) }

// Payload returns the frame's low-half byte.
func (f Frame) Payload() byte { return byte(f) }

// IsData reports whether the frame carries a command/response byte.
func (f Frame) IsData() bool { return f.Tag() == TagData }

// Assembler packs a byte stream into SPI frames and unpacks it again,
// mirroring the SPI entity's serialize/deserialize role.
type Assembler struct {
	frames   uint64 // bytes packed
	rejected uint64 // frames Unpack discarded
}

// Pack appends data to dst as data frames and returns the extended slice.
// Callers pack into storage of their own, so framing allocates nothing.
func (a *Assembler) Pack(dst []Frame, data []byte) []Frame {
	for _, b := range data {
		dst = append(dst, NewDataFrame(b))
	}
	a.frames += uint64(len(data))
	return dst
}

// Unpack appends the data frames' payload bytes to dst and returns the
// extended slice, discarding (and counting) frames with unknown tags — line
// noise on a real SPI bus.
func (a *Assembler) Unpack(dst []byte, frames []Frame) []byte {
	for _, f := range frames {
		if !f.IsData() {
			a.rejected++
			continue
		}
		dst = append(dst, f.Payload())
	}
	return dst
}
