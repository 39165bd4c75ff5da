package bitstream

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCRC8KnownVectors(t *testing.T) {
	// CRC-8/ATM-HEC ("123456789" -> 0xF4 is the standard check value for
	// poly 0x07, init 0, no reflection).
	cases := []struct {
		in   string
		want byte
	}{
		{"", 0x00},
		{"123456789", 0xF4},
		{"\x00", 0x00},
		{"\xFF", 0xF3},
	}
	for _, c := range cases {
		if got := CRC8([]byte(c.in)); got != c.want {
			t.Errorf("CRC8(%q) = %#02x, want %#02x", c.in, got, c.want)
		}
	}
}

func TestCRC8UpdateMatchesWholeBuffer(t *testing.T) {
	data := []byte("myrinet packet body with route bytes")
	var crc byte
	for _, b := range data {
		crc = CRC8Update(crc, b)
	}
	if want := CRC8(data); crc != want {
		t.Errorf("incremental CRC8 = %#02x, want %#02x", crc, want)
	}
}

func TestCRC8DetectsSingleBitErrors(t *testing.T) {
	data := []byte{0x81, 0x00, 0x04, 0xDE, 0xAD, 0xBE, 0xEF}
	good := CRC8(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), data...)
			mutated[i] ^= 1 << bit
			if CRC8(mutated) == good {
				t.Errorf("single-bit flip at byte %d bit %d not detected", i, bit)
			}
		}
	}
}

// Property: CRC-8 is linear over GF(2): crc(a^b) == crc(a)^crc(b) for
// equal-length inputs (with zero init, no final xor).
func TestCRC8Linearity(t *testing.T) {
	prop := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		x := make([]byte, n)
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		return CRC8(x) == CRC8(a)^CRC8(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	prop := func(data []byte) bool {
		return CRC32(data) == crc32.ChecksumIEEE(data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// crc8Bitwise is an independent bit-serial oracle for CRC-8/ATM-HEC
// (poly 0x07, MSB-first, zero init): no tables, just the shift register the
// hardware implements.
func crc8Bitwise(data []byte) byte {
	var crc byte
	for _, b := range data {
		crc ^= b
		for bit := 0; bit < 8; bit++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// crc32Bitwise is an independent bit-serial oracle for the reflected IEEE
// CRC-32 (poly 0xEDB88320, init/final all-ones).
func crc32Bitwise(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b)
		for bit := 0; bit < 8; bit++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xEDB88320
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// TestCRCTablesAgainstOracles cross-checks the CRC-8 table and both CRCs
// against bit-serial shift registers, and CRC-32 against hash/crc32.
func TestCRCTablesAgainstOracles(t *testing.T) {
	for b := 0; b < 256; b++ {
		if got, want := crc8Table[b], crc8Bitwise([]byte{byte(b)}); got != want {
			t.Fatalf("crc8Table[%#02x] = %#02x, want bit-serial %#02x", b, got, want)
		}
	}
	cases := [][]byte{
		nil,
		{0x00},
		{0xFF},
		[]byte("123456789"),
		[]byte("Have a lot of fun"),
		bytes.Repeat([]byte{0xA5, 0x5A}, 100),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		buf := make([]byte, rng.Intn(300))
		rng.Read(buf)
		cases = append(cases, buf)
	}
	for _, data := range cases {
		if got, want := CRC32(data), crc32.ChecksumIEEE(data); got != want {
			t.Errorf("CRC32(%d bytes) = %#08x, want stdlib %#08x", len(data), got, want)
		}
		if got, want := CRC32(data), crc32Bitwise(data); got != want {
			t.Errorf("CRC32(%d bytes) = %#08x, want bit-serial %#08x", len(data), got, want)
		}
		if got, want := CRC8(data), crc8Bitwise(data); got != want {
			t.Errorf("CRC8(%d bytes) = %#02x, want bit-serial %#02x", len(data), got, want)
		}
	}
}

// The sliced 4-byte update must compose exactly like four serial updates.
func TestCRC8Update4MatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		crc := byte(rng.Intn(256))
		b0, b1, b2, b3 := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		want := CRC8Update(CRC8Update(CRC8Update(CRC8Update(crc, b0), b1), b2), b3)
		if got := CRC8Update4(crc, b0, b1, b2, b3); got != want {
			t.Fatalf("CRC8Update4(%#02x, %#02x %#02x %#02x %#02x) = %#02x, want %#02x",
				crc, b0, b1, b2, b3, got, want)
		}
	}
}

// The sliced 8-byte update must compose exactly like eight serial updates.
func TestCRC8Update8MatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var b [8]byte
	for i := 0; i < 2000; i++ {
		crc := byte(rng.Intn(256))
		rng.Read(b[:])
		want := crc
		for _, x := range b {
			want = CRC8Update(want, x)
		}
		got := CRC8Update8(crc, b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7])
		if got != want {
			t.Fatalf("CRC8Update8(%#02x, % 02x) = %#02x, want %#02x", crc, b, got, want)
		}
	}
}

func TestCRC8ZerosMatchesLoop(t *testing.T) {
	ns := []int{0, 1, 2, 3, 7, 8, 63, 64, 127, 128, 255, 256, 257, 1000, 4096}
	for _, n := range ns {
		for _, start := range []byte{0x00, 0x01, 0x80, 0xF4, 0xFF} {
			want := start
			for i := 0; i < n; i++ {
				want = CRC8Update(want, 0)
			}
			if got := CRC8Zeros(start, n); got != want {
				t.Errorf("CRC8Zeros(%#02x, %d) = %#02x, want %#02x", start, n, got, want)
			}
		}
	}
}

func TestChecksum16KnownVector(t *testing.T) {
	// Classic example from RFC 1071 discussions: verify by summing back in.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	sum := Checksum16(data)
	withSum := append(append([]byte(nil), data...), byte(sum>>8), byte(sum))
	if !VerifyChecksum16(withSum) {
		t.Errorf("Checksum16 round trip failed: sum=%#04x", sum)
	}
}

func TestChecksum16OddLength(t *testing.T) {
	data := []byte{0xAB, 0xCD, 0xEF}
	sum := Checksum16(data)
	// Appending the checksum after padding semantics: verify manually.
	var s uint32 = 0xABCD + 0xEF00 + uint32(sum)
	for s>>16 != 0 {
		s = s&0xFFFF + s>>16
	}
	if uint16(s) != 0xFFFF {
		t.Errorf("odd-length checksum does not verify: %#04x", s)
	}
}

// Property: swapping two bytes exactly 16 bits apart is invisible to the
// one's-complement checksum. This is precisely the fault the paper's §4.3.4
// injection exploits ("Have a lot of fun" -> "veHa a lot of fun").
func TestChecksum16BlindToAlignedSwaps(t *testing.T) {
	prop := func(data []byte, idx uint8) bool {
		if len(data) < 4 {
			return true
		}
		i := int(idx) % (len(data) - 2)
		// Swap data[i] with data[i+2]: same column in the 16-bit sum.
		mutated := append([]byte(nil), data...)
		mutated[i], mutated[i+2] = mutated[i+2], mutated[i]
		return Checksum16(mutated) == Checksum16(data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksum16HaveALotOfFun(t *testing.T) {
	orig := []byte("Have a lot of fun")
	swapped := []byte("veHa a lot of fun")
	// "Have" -> "veHa" swaps bytes 0<->2 and 1<->3, both 16 bits apart.
	if Checksum16(orig) != Checksum16(swapped) {
		t.Error("checksum detected the 16-bit-aligned swap; the paper's fault should be invisible")
	}
	// A swap that is NOT 16-bit aligned is detected.
	detected := append([]byte(nil), orig...)
	detected[0], detected[1] = detected[1], detected[0]
	if Checksum16(detected) == Checksum16(orig) && !bytes.Equal(detected, orig) {
		t.Error("adjacent-byte swap unexpectedly evaded the checksum")
	}
}

func TestChecksum16DetectsSingleBitErrors(t *testing.T) {
	data := []byte("UDP payload under test 1234")
	good := Checksum16(data)
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x40
		if Checksum16(mutated) == good {
			t.Errorf("bit error at byte %d not detected", i)
		}
	}
}
