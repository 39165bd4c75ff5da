package serial

import (
	"bytes"
	"testing"

	"netfi/internal/sim"
)

// FuzzSerialFraming holds the console's byte framing to its contract on
// arbitrary input:
//
//   - packing into SPI data frames and unpacking again returns the bytes;
//   - unpacking arbitrary frames (the input read pairwise, tag first)
//     returns the data-tagged payloads in order and counts every other
//     frame as rejected;
//   - a UART delivers every byte sent, in order, one byte time after the
//     later of its send and the previous byte's delivery — so each byte
//     lands at least one byte time after the one before it — and its
//     BusyUntil() is the last byte's delivery (0 when nothing was sent):
//     an empty write leaves the line as it was.
//
// The input goes out in two writes, the second `delay` quarter byte times
// after the first, so a write lands both behind a busy line and on an idle
// one.
func FuzzSerialFraming(f *testing.F) {
	f.Add([]byte("MODE ON\n"), uint16(0), uint8(3), uint8(2))
	f.Add([]byte{TagData, 'A', TagStatus, 0x00, 0xFF, 0xFF, TagData, 'B'}, uint16(9600), uint8(4), uint8(200))
	f.Add([]byte("RULE ADD 1 MODE ONCE ACT DROP PAT C0C\n"), uint16(1), uint8(0), uint8(0))
	f.Add([]byte{}, uint16(115), uint8(0), uint8(1))
	f.Add([]byte("0000"), uint16(9600), uint8(4), uint8(200)) // an empty write to an idle line
	f.Fuzz(func(t *testing.T, data []byte, baud uint16, split, delay uint8) {
		var a Assembler
		if got := a.Unpack(nil, a.Pack(nil, data)); !bytes.Equal(got, data) {
			t.Fatalf("Unpack(Pack(%x)) = %x", data, got)
		}
		if a.frames != uint64(len(data)) || a.rejected != 0 {
			t.Fatalf("after a round trip of %d bytes: packed %d, rejected %d", len(data), a.frames, a.rejected)
		}

		frames := make([]Frame, len(data)/2)
		var want []byte
		others := uint64(0)
		for i := range frames {
			tag, b := data[2*i], data[2*i+1]
			frames[i] = Frame(uint16(tag)<<8 | uint16(b))
			if tag == TagData {
				want = append(want, b)
			} else {
				others++
			}
		}
		if got := a.Unpack(nil, frames); !bytes.Equal(got, want) {
			t.Fatalf("Unpack(%04x) = %x, want %x", frames, got, want)
		}
		if a.rejected != others {
			t.Fatalf("rejected %d frames, want %d", a.rejected, others)
		}

		k := sim.NewKernel(1)
		var got []byte
		var at []sim.Time
		u := NewUART(k, int(baud), ByteSinkFunc(func(b byte) {
			got = append(got, b)
			at = append(at, k.Now())
		}))
		cut := 0
		if len(data) > 0 {
			cut = int(split) % (len(data) + 1)
		}
		second := sim.Time(delay) * sim.Time(u.byteTime) / 4
		u.Send(data[:cut])
		k.At(second, func() { u.Send(data[cut:]) })
		k.Run()
		if !bytes.Equal(got, data) {
			t.Fatalf("UART delivered %x, sent %x", got, data)
		}
		if u.Sent() != uint64(len(data)) {
			t.Fatalf("Sent() = %d, want %d", u.Sent(), len(data))
		}
		prev := sim.Time(0)
		for i, ti := range at {
			sentAt := sim.Time(0)
			if i >= cut {
				sentAt = second
			}
			if exp := max(prev, sentAt) + sim.Time(u.byteTime); ti != exp {
				t.Fatalf("byte %d of %d (cut %d) delivered at %v, want %v", i, len(data), cut, ti, exp)
			}
			prev = ti
		}
		if busy := u.BusyUntil(); busy != prev {
			t.Fatalf("BusyUntil() = %v, want the last delivery at %v", busy, prev)
		}
	})
}
