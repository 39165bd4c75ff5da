package enc8b10b

import (
	"testing"
	"testing/quick"
)

func TestKnownCodeGroups(t *testing.T) {
	cases := []struct {
		name string
		b    byte
		isK  bool
		rd   RD
		want uint16
	}{
		{"D0.0 RD-", 0x00, false, RDMinus, 0b1001110100},
		{"D0.0 RD+", 0x00, false, RDPlus, 0b0110001011},
		{"K28.5 RD-", 0xBC, true, RDMinus, 0b0011111010},
		{"K28.5 RD+", 0xBC, true, RDPlus, 0b1100000101},
		{"K28.1 RD-", 0x3C, true, RDMinus, 0b0011111001},
		{"K28.3 RD-", 0x7C, true, RDMinus, 0b0011110011},
		{"D21.5 RD-", 0xB5, false, RDMinus, 0b1010101010},
		{"D21.5 RD+", 0xB5, false, RDPlus, 0b1010101010},
	}
	for _, c := range cases {
		got, _, err := Encode(c.b, c.isK, c.rd)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %010b, want %010b", c.name, got, c.want)
		}
	}
}

func TestEncodeDecodeRoundTripAllBytes(t *testing.T) {
	for _, rd := range []RD{RDMinus, RDPlus} {
		for v := 0; v < 256; v++ {
			code, next, err := Encode(byte(v), false, rd)
			if err != nil {
				t.Fatalf("Encode(D%#02x, %v): %v", v, rd, err)
			}
			res, decRD := Decode(code, rd)
			if res.Invalid || res.DisparityError {
				t.Fatalf("D%#02x rd=%v decoded as invalid=%v dispErr=%v", v, rd, res.Invalid, res.DisparityError)
			}
			if res.Byte != byte(v) || res.IsK {
				t.Fatalf("D%#02x decoded as %#02x K=%v", v, res.Byte, res.IsK)
			}
			// Decoder's RD evolution must mirror the encoder's.
			if decRD != next {
				t.Fatalf("D%#02x rd=%v: decoder RD %v != encoder RD %v", v, rd, decRD, next)
			}
		}
	}
}

func TestEncodeDecodeRoundTripKChars(t *testing.T) {
	for k := range validK {
		for _, rd := range []RD{RDMinus, RDPlus} {
			code, _, err := Encode(k, true, rd)
			if err != nil {
				t.Fatalf("Encode(K%#02x): %v", k, err)
			}
			res, _ := Decode(code, rd)
			if !res.IsK || res.Byte != k || res.Invalid {
				t.Errorf("K%#02x rd=%v decoded as %+v", k, rd, res)
			}
		}
	}
}

func TestEncodeRejectsBogusK(t *testing.T) {
	if _, _, err := Encode(0x00, true, RDMinus); err == nil {
		t.Error("K0.0 encoded without error")
	}
}

// Property: every valid code group has 4, 5, or 6 ones — the fundamental
// DC-balance bound of 8b/10b.
func TestCodeGroupOnesBound(t *testing.T) {
	check := func(code uint16) {
		ones := 0
		for i := 0; i < 10; i++ {
			if code&(1<<i) != 0 {
				ones++
			}
		}
		if ones < 4 || ones > 6 {
			t.Fatalf("code %010b has %d ones", code, ones)
		}
	}
	for v := 0; v < 256; v++ {
		for _, rd := range []RD{RDMinus, RDPlus} {
			code, _, _ := Encode(byte(v), false, rd)
			check(code)
		}
	}
}

// Property: over any byte stream, running disparity stays in {-1,+1} and
// the stream decodes back exactly.
func TestStreamRoundTripProperty(t *testing.T) {
	prop := func(data []byte) bool {
		codes, finalRD := EncodeStream(data, RDMinus)
		if finalRD != RDMinus && finalRD != RDPlus {
			return false
		}
		rd := RDMinus
		for i, code := range codes {
			res, next := Decode(code, rd)
			if res.Invalid || res.DisparityError || res.IsK || res.Byte != data[i] {
				return false
			}
			rd = next
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: the code is a prefix-free mapping per disparity — no two
// distinct inputs share a code group under the same entry disparity.
func TestNoCodeCollisions(t *testing.T) {
	for rdi := 0; rdi < 2; rdi++ {
		seen := make(map[uint16]byte)
		for v := 0; v < 256; v++ {
			code, _, _ := Encode(byte(v), false, RD(2*rdi-1))
			if prev, ok := seen[code]; ok {
				t.Fatalf("D%#02x and D%#02x share code %010b", prev, v, code)
			}
			seen[code] = byte(v)
		}
	}
}

func TestSingleBitFaultsAreDetectable(t *testing.T) {
	// Flip each bit of each encoded data byte: the result must decode as
	// invalid, as a disparity error, or (if it aliases a legal group)
	// derail the running disparity so a later group errors. Count how
	// many faults are immediately visible — the vast majority must be.
	immediate := 0
	total := 0
	for v := 0; v < 256; v++ {
		code, _, _ := Encode(byte(v), false, RDMinus)
		for bit := 0; bit < 10; bit++ {
			total++
			res, _ := Decode(code^1<<bit, RDMinus)
			if res.Invalid || res.DisparityError || (!res.IsK && res.Byte == byte(v)) {
				if res.Invalid || res.DisparityError {
					immediate++
				}
				continue
			}
			// Aliased to a different legal value: data corruption that
			// upper layers (FC CRC-32) must catch.
		}
	}
	if float64(immediate)/float64(total) < 0.5 {
		t.Errorf("only %d/%d single-bit faults immediately detectable", immediate, total)
	}
}

func TestDisparityErrorDetection(t *testing.T) {
	// D.0's RD- form arriving while the decoder expects RD+ is a
	// disparity error.
	code, _, _ := Encode(0x00, false, RDMinus)
	res, _ := Decode(code, RDPlus)
	if !res.DisparityError {
		t.Errorf("wrong-disparity code not flagged: %+v", res)
	}
}

func TestCommaUniqueness(t *testing.T) {
	// The comma pattern 0011111 / 1100000 (abcdeif) must appear only in
	// K28.1, K28.5, K28.7 — singular comma property used for alignment.
	hasComma := func(code uint16) bool {
		top7 := code >> 3
		return top7 == 0b0011111 || top7 == 0b1100000
	}
	for v := 0; v < 256; v++ {
		for _, rd := range []RD{RDMinus, RDPlus} {
			code, _, _ := Encode(byte(v), false, rd)
			if hasComma(code) {
				t.Errorf("data byte D%#02x rd=%v contains a comma: %010b", v, rd, code)
			}
		}
	}
	for _, k := range []byte{0xBC, 0x3C, 0xFC} {
		code, _, _ := Encode(k, true, RDMinus)
		if !hasComma(code) {
			t.Errorf("K%#02x lacks the comma: %010b", k, code)
		}
	}
}

// EncodeStream encodes a byte stream (all data characters) from an initial
// disparity, returning the code groups and final disparity.
func EncodeStream(data []byte, rd RD) ([]uint16, RD) {
	out := make([]uint16, len(data))
	for i, b := range data {
		code, next, err := Encode(b, false, rd)
		if err != nil {
			panic(err) // unreachable: every data byte encodes
		}
		out[i] = code
		rd = next
	}
	return out, rd
}
