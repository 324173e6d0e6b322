package pkt

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// Checksum computes the RFC 1071 internet checksum of b. A 20-byte IPv4
// header, which every hop verifies and every host send fills in, is summed
// by checksum20.
func Checksum(b []byte) uint16 {
	if len(b) == IPv4HeaderLen {
		return checksum20((*[IPv4HeaderLen]byte)(b))
	}
	return checksum(b, 0)
}

// checksum20 is checksum(h, 0) for a 20-byte header: its five big-endian
// 32-bit words sum without overflow in 64 bits, and each fold keeps the
// residue mod 2^16-1 as checksum's do, so the result is the same bits.
func checksum20(h *[IPv4HeaderLen]byte) uint16 {
	sum := uint64(binary.BigEndian.Uint32(h[0:])) + uint64(binary.BigEndian.Uint32(h[4:])) +
		uint64(binary.BigEndian.Uint32(h[8:])) + uint64(binary.BigEndian.Uint32(h[12:])) +
		uint64(binary.BigEndian.Uint32(h[16:]))
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return ^uint16(sum)
}

// checksum is the one checksum loop of the package: the complement of the
// one's-complement sum of initial and the big-endian 16-bit words of b, an
// odd trailing byte padded with a zero. It reads 8 bytes per load into a
// 64-bit accumulator with end-around carry and folds to 16 bits at the end,
// which is valid because 2^16 ≡ 1 (mod 2^16-1): a big-endian 64-bit word is
// congruent to the sum of its four 16-bit words.
func checksum(b []byte, initial uint32) uint16 {
	sum := uint64(initial)
	var c uint64
	for len(b) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[8:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[16:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	// The tail is at most 7 bytes: left-aligned in one zero-padded word it
	// keeps its 16-bit word boundaries and its odd-byte padding.
	var tail uint64
	for i, x := range b {
		tail |= uint64(x) << (56 - 8*uint(i))
	}
	sum, c = bits.Add64(sum, tail, c)
	sum, c = bits.Add64(sum, 0, c)
	sum += c // cannot carry again: the previous step wrapped to a small value
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return ^uint16(sum)
}

// pseudoHeaderSum computes the one's-complement sum of the IPv4 pseudo
// header that UDP and TCP checksums cover.
func pseudoHeaderSum(src, dst netip.Addr, proto IPProto, length int) uint32 {
	s, d := mustAddr4(src), mustAddr4(dst)
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(s[0:2])) + uint32(binary.BigEndian.Uint16(s[2:4]))
	sum += uint32(binary.BigEndian.Uint16(d[0:2])) + uint32(binary.BigEndian.Uint16(d[2:4]))
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}
