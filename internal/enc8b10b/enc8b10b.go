// Package enc8b10b implements the IBM 8b/10b transmission code used by
// Fibre Channel (FC-PH, [ANS94]): 5b/6b and 3b/4b sub-block encoding with
// running-disparity tracking, the special K (control) characters, and a
// decoder that classifies invalid code groups and disparity errors. The
// fault injector demonstrates media independence by corrupting FC streams
// at the 10-bit code-group level; corrupted groups surface here as code
// violations or disparity errors, which is how real FC hardware notices
// in-flight bit faults.
package enc8b10b

import "fmt"

// RD is the running disparity.
type RD int

// Disparities. Transmission starts at RDMinus.
const (
	RDMinus RD = -1
	RDPlus  RD = 1
)

// enc6 holds the 5b/6b table as {RD- form, RD+ form}, bit 5 = a … bit 0 = i.
var enc6 = [32][2]uint16{
	{0b100111, 0b011000}, // D.0
	{0b011101, 0b100010}, // D.1
	{0b101101, 0b010010}, // D.2
	{0b110001, 0b110001}, // D.3
	{0b110101, 0b001010}, // D.4
	{0b101001, 0b101001}, // D.5
	{0b011001, 0b011001}, // D.6
	{0b111000, 0b000111}, // D.7 (balanced but alternating)
	{0b111001, 0b000110}, // D.8
	{0b100101, 0b100101}, // D.9
	{0b010101, 0b010101}, // D.10
	{0b110100, 0b110100}, // D.11
	{0b001101, 0b001101}, // D.12
	{0b101100, 0b101100}, // D.13
	{0b011100, 0b011100}, // D.14
	{0b010111, 0b101000}, // D.15
	{0b011011, 0b100100}, // D.16
	{0b100011, 0b100011}, // D.17
	{0b010011, 0b010011}, // D.18
	{0b110010, 0b110010}, // D.19
	{0b001011, 0b001011}, // D.20
	{0b101010, 0b101010}, // D.21
	{0b011010, 0b011010}, // D.22
	{0b111010, 0b000101}, // D.23
	{0b110011, 0b001100}, // D.24
	{0b100110, 0b100110}, // D.25
	{0b010110, 0b010110}, // D.26
	{0b110110, 0b001001}, // D.27
	{0b001110, 0b001110}, // D.28
	{0b101110, 0b010001}, // D.29
	{0b011110, 0b100001}, // D.30
	{0b101011, 0b010100}, // D.31
}

// k28_6 is the 5b/6b encoding of K.28, the only 5b value with a distinct K
// form used by the standard control characters.
var k28_6 = [2]uint16{0b001111, 0b110000}

// enc4Data holds the data 3b/4b table as {RD- form, RD+ form},
// bit 3 = f … bit 0 = j. y = 7 entries are the primary forms; the A7
// alternates are applied by the run-length rule in encode4.
var enc4Data = [8][2]uint16{
	{0b1011, 0b0100}, // .0
	{0b1001, 0b1001}, // .1
	{0b0101, 0b0101}, // .2
	{0b1100, 0b0011}, // .3 (balanced but alternating)
	{0b1101, 0b0010}, // .4
	{0b1010, 0b1010}, // .5
	{0b0110, 0b0110}, // .6
	{0b1110, 0b0001}, // .7 primary
}

// a7 holds the alternate .7 encodings {RD-, RD+}.
var a7 = [2]uint16{0b0111, 0b1000}

// enc4K holds the control-character 3b/4b table: K.x.1/2/5/6 use the
// alternate encodings so no false comma can form.
var enc4K = [8][2]uint16{
	{0b1011, 0b0100}, // K.x.0
	{0b0110, 0b1001}, // K.x.1
	{0b1010, 0b0101}, // K.x.2
	{0b1100, 0b0011}, // K.x.3
	{0b1101, 0b0010}, // K.x.4
	{0b0101, 0b1010}, // K.x.5
	{0b1001, 0b0110}, // K.x.6
	{0b0111, 0b1000}, // K.x.7
}

// Valid K characters (the FC-PH set).
var validK = map[byte]bool{
	0x1C: true, // K28.0
	0x3C: true, // K28.1
	0x5C: true, // K28.2
	0x7C: true, // K28.3
	0x9C: true, // K28.4
	0xBC: true, // K28.5 (the comma character)
	0xDC: true, // K28.6
	0xFC: true, // K28.7
	0xF7: true, // K23.7
	0xFB: true, // K27.7
	0xFD: true, // K29.7
	0xFE: true, // K30.7
}

func rdIdx(rd RD) int {
	if rd == RDPlus {
		return 1
	}
	return 0
}

func disparity(code uint16, bits int) int {
	ones := 0
	for i := 0; i < bits; i++ {
		if code&(1<<i) != 0 {
			ones++
		}
	}
	return 2*ones - bits
}

// Encode encodes one byte (a K character when isK) under the running
// disparity, returning the 10-bit code group (bit 9 = a … bit 0 = j) and
// the new disparity.
func Encode(b byte, isK bool, rd RD) (uint16, RD, error) {
	x := b & 0x1F       // EDCBA
	y := (b >> 5) & 0x7 // HGF
	var six uint16
	switch {
	case isK && x == 28:
		six = k28_6[rdIdx(rd)]
	case isK && y == 7 && (x == 23 || x == 27 || x == 29 || x == 30):
		six = enc6[x][rdIdx(rd)]
	case isK:
		return 0, rd, fmt.Errorf("enc8b10b: no such control character K%d.%d", x, y)
	default:
		six = enc6[x][rdIdx(rd)]
	}
	rd2 := rd
	if disparity(six, 6) != 0 {
		rd2 = -rd
	}
	var four uint16
	switch {
	case isK:
		four = enc4K[y][rdIdx(rd2)]
	case y == 7 && useA7(x, rd2):
		four = a7[rdIdx(rd2)]
	default:
		four = enc4Data[y][rdIdx(rd2)]
	}
	rd3 := rd2
	if disparity(four, 4) != 0 {
		rd3 = -rd2
	}
	return six<<4 | four, rd3, nil
}

// useA7 implements the alternate-.7 rule that prevents a run of five equal
// bits across the sub-block boundary.
func useA7(x byte, rd RD) bool {
	if rd == RDMinus {
		return x == 17 || x == 18 || x == 20
	}
	return x == 11 || x == 13 || x == 14
}

// decoded is one decode-table entry.
type decoded struct {
	b   byte
	isK bool
}

// decodeMap[rdIdx][code] is built by exhaustive encoding.
var decodeMap = buildDecodeMaps()

func buildDecodeMaps() [2]map[uint16]decoded {
	var maps [2]map[uint16]decoded
	for rdi, rd := range []RD{RDMinus, RDPlus} {
		maps[rdi] = make(map[uint16]decoded)
		for v := 0; v < 256; v++ {
			code, _, err := Encode(byte(v), false, rd)
			if err == nil {
				maps[rdi][code] = decoded{b: byte(v)}
			}
		}
		for v := range validK {
			code, _, err := Encode(v, true, rd)
			if err != nil {
				panic(err)
			}
			if prev, ok := maps[rdi][code]; ok {
				panic(fmt.Sprintf("enc8b10b: K%#02x collides with D%#02x", v, prev.b))
			}
			maps[rdi][code] = decoded{b: v, isK: true}
		}
	}
	return maps
}

// DecodeResult classifies one decoded code group.
type DecodeResult struct {
	// Byte is the decoded value (valid unless Invalid).
	Byte byte
	// IsK reports a control character.
	IsK bool
	// DisparityError reports a legal code group arriving under the wrong
	// running disparity — the signature of an upstream bit fault.
	DisparityError bool
	// Invalid reports a code group outside the 8b/10b code space.
	Invalid bool
}

// Decode decodes one 10-bit code group under the running disparity and
// returns the classification plus the new disparity.
func Decode(code uint16, rd RD) (DecodeResult, RD) {
	code &= 0x3FF
	newRD := rd
	if d := disparity(code, 10); d > 0 {
		newRD = RDPlus
	} else if d < 0 {
		newRD = RDMinus
	}
	if dec, ok := decodeMap[rdIdx(rd)][code]; ok {
		return DecodeResult{Byte: dec.b, IsK: dec.isK}, newRD
	}
	// Legal under the opposite disparity? Then it's a disparity error.
	if dec, ok := decodeMap[1-rdIdx(rd)][code]; ok {
		return DecodeResult{Byte: dec.b, IsK: dec.isK, DisparityError: true}, newRD
	}
	return DecodeResult{Invalid: true}, newRD
}
