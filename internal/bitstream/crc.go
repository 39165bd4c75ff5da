// Package bitstream provides the checksum primitives shared by the network
// substrates: the CRC-8 that trails every Myrinet packet (recomputed at each
// switch hop as route bytes are stripped), the IEEE CRC-32 used by Fibre
// Channel frames, and the 16-bit one's-complement checksum used by the UDP
// experiment in §4.3.4 of the paper.
package bitstream

import "hash/crc32"

// CRC8 computes the Myrinet trailing CRC over data using the CRC-8/ATM-HEC
// polynomial x^8 + x^2 + x + 1 (0x07), MSB-first, zero initial value.
// Myrinet appends this byte after the payload; each switch recomputes it
// after consuming a route byte.
func CRC8(data []byte) byte {
	var crc byte
	for _, b := range data {
		crc = crc8Table[crc^b]
	}
	return crc
}

// CRC8Update extends a running CRC-8 with one byte.
func CRC8Update(crc, b byte) byte { return crc8Table[crc^b] }

// CRC8Update4 extends a running CRC-8 with four bytes at once using
// slicing-by-4. The four table lookups are independent, so the loop-carried
// dependency is one xor chain per four bytes instead of one per byte — the
// batch datapath uses this to take the CRC off the critical path.
func CRC8Update4(crc, b0, b1, b2, b3 byte) byte {
	return crc8Slice[3][crc^b0] ^ crc8Slice[2][b1] ^ crc8Slice[1][b2] ^ crc8Slice[0][b3]
}

// CRC8Update8 extends a running CRC-8 with eight bytes at once using
// slicing-by-8: eight independent table lookups, one xor reduction per
// block. The armed batch datapath runs this over popped data runs.
func CRC8Update8(crc, b0, b1, b2, b3, b4, b5, b6, b7 byte) byte {
	return crc8Slice[7][crc^b0] ^ crc8Slice[6][b1] ^ crc8Slice[5][b2] ^ crc8Slice[4][b3] ^
		crc8Slice[3][b4] ^ crc8Slice[2][b5] ^ crc8Slice[1][b6] ^ crc8Slice[0][b7]
}

// CRC8Zeros advances a running CRC-8 over n zero bytes. Updating with a zero
// byte is the linear map crc -> table[crc], so n steps decompose into
// power-of-two jumps through precomputed composition tables. The switch uses
// this to advance its incremental CRC correction over a forwarded run without
// walking it byte by byte.
func CRC8Zeros(crc byte, n int) byte {
	for k := 0; k < len(crc8Zero) && n != 0; k++ {
		if n&1 != 0 {
			crc = crc8Zero[k][crc]
		}
		n >>= 1
	}
	// n now counts remaining 256-step blocks: two 128-step jumps each.
	for ; n != 0; n-- {
		crc = crc8Zero[len(crc8Zero)-1][crc8Zero[len(crc8Zero)-1][crc]]
	}
	return crc
}

var crc8Table = makeCRC8Table(0x07)

// crc8Slice[k][b] is the CRC of byte b followed by k zero bytes: the
// standard slicing decomposition crc(b0 b1 b2 b3) =
// S3[crc^b0] ^ S2[b1] ^ S1[b2] ^ S0[b3], valid because the zero-init CRC is
// linear over GF(2).
var crc8Slice = makeCRC8Slice()

func makeCRC8Slice() [8][256]byte {
	var t [8][256]byte
	t[0] = crc8Table
	for k := 1; k < 8; k++ {
		for b := 0; b < 256; b++ {
			t[k][b] = crc8Table[t[k-1][b]]
		}
	}
	return t
}

// crc8Zero[k][c] applies the zero-byte update 2^k times to c.
var crc8Zero = makeCRC8Zero()

func makeCRC8Zero() [8][256]byte {
	var t [8][256]byte
	for c := 0; c < 256; c++ {
		t[0][c] = crc8Table[c]
	}
	for k := 1; k < 8; k++ {
		for c := 0; c < 256; c++ {
			t[k][c] = t[k-1][t[k-1][c]]
		}
	}
	return t
}

func makeCRC8Table(poly byte) [256]byte {
	var t [256]byte
	for i := 0; i < 256; i++ {
		crc := byte(i)
		for bit := 0; bit < 8; bit++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}

// CRC32 computes the Fibre Channel frame CRC (IEEE 802.3 polynomial,
// reflected, initial value all-ones, final complement) over data: the
// standard library's IEEE CRC-32.
func CRC32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Checksum16 computes the 16-bit one's-complement checksum over data, as
// used by UDP (RFC 768). Data is treated as a sequence of big-endian 16-bit
// words; an odd trailing byte is padded with zero. The returned value is the
// complement of the one's-complement sum, so a packet whose stored checksum
// equals Checksum16 of its contents (with the checksum field zeroed)
// verifies by summing to 0xFFFF.
//
// The §4.3.4 experiment relies on a real implementation: swapping two bytes
// that are 16 bits apart swaps equal addends in the one's-complement sum,
// which the checksum cannot detect.
func Checksum16(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// VerifyChecksum16 reports whether data, which includes a stored checksum
// field somewhere within it, sums (one's-complement) to all-ones.
func VerifyChecksum16(data []byte) bool { return Checksum16(data) == 0 }
