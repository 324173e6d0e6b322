package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPProto identifies the transport protocol of an IPv4 packet.
type IPProto uint8

// Protocol numbers used by the system.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
	ProtoOSPF IPProto = 89
)

// String names the known protocols.
func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	case ProtoOSPF:
		return "OSPF"
	default:
		return fmt.Sprintf("IPProto(%d)", uint8(p))
	}
}

// IPv4HeaderLen is the length of an option-less IPv4 header.
const IPv4HeaderLen = 20

// IPv4 is an IPv4 packet with an option-less header.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Proto    IPProto
	Src, Dst netip.Addr
	Payload  []byte
}

// AppendHeader appends the 20-byte header of a packet carrying payloadLen
// payload bytes, with total length and header checksum filled in; p.Payload
// is not consulted. It is the packet's only encoder: callers that build a
// frame in one buffer append the transport layer after it, and Marshal is
// AppendHeader plus the payload.
func (p *IPv4) AppendHeader(b []byte, payloadLen int) []byte {
	n := len(b)
	b = append(b, make([]byte, IPv4HeaderLen)...)
	h := b[n:]
	h[0] = 0x45 // version 4, IHL 5
	h[1] = p.TOS
	binary.BigEndian.PutUint16(h[2:], uint16(IPv4HeaderLen+payloadLen))
	binary.BigEndian.PutUint16(h[4:], p.ID)
	binary.BigEndian.PutUint16(h[6:], uint16(p.Flags)<<13|p.FragOff&0x1fff)
	h[8] = p.TTL
	h[9] = uint8(p.Proto)
	src, dst := mustAddr4(p.Src), mustAddr4(p.Dst)
	copy(h[12:16], src[:])
	copy(h[16:20], dst[:])
	binary.BigEndian.PutUint16(h[10:], Checksum(h))
	return b
}

// Marshal serializes the packet, computing total length and header checksum.
func (p *IPv4) Marshal() []byte {
	b := make([]byte, 0, IPv4HeaderLen+len(p.Payload))
	return append(p.AppendHeader(b, len(p.Payload)), p.Payload...)
}

// DecodeIPv4 parses an IPv4 packet and verifies the header checksum. Options
// are skipped; the returned Payload aliases b.
func DecodeIPv4(b []byte) (*IPv4, error) {
	var p IPv4
	if err := DecodeIPv4Into(&p, b); err != nil {
		return nil, err
	}
	return &p, nil
}

// DecodeIPv4Into is DecodeIPv4 decoding into a caller-provided packet; with
// a stack-allocated IPv4 it does not allocate. p.Payload aliases b.
func DecodeIPv4Into(p *IPv4, b []byte) error {
	if len(b) < IPv4HeaderLen {
		return fmt.Errorf("%w: ipv4 header", ErrTruncated)
	}
	if v := b[0] >> 4; v != 4 {
		return fmt.Errorf("pkt: IP version %d, want 4", v)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return fmt.Errorf("%w: ipv4 IHL %d", ErrTruncated, ihl)
	}
	if Checksum(b[:ihl]) != 0 {
		return fmt.Errorf("pkt: ipv4 header checksum mismatch")
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < ihl || total > len(b) {
		return fmt.Errorf("%w: ipv4 total length %d of %d", ErrTruncated, total, len(b))
	}
	p.TOS = b[1]
	p.ID = binary.BigEndian.Uint16(b[4:])
	ff := binary.BigEndian.Uint16(b[6:])
	p.Flags = uint8(ff >> 13)
	p.FragOff = ff & 0x1fff
	p.TTL = b[8]
	p.Proto = IPProto(b[9])
	p.Src = netip.AddrFrom4([4]byte(b[12:16]))
	p.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	p.Payload = b[ihl:total]
	return nil
}

// DecrementTTL decrements the TTL of the IPv4 header at the start of b in
// place and repairs the header checksum incrementally per RFC 1624 Eqn. 3
// (HC' = ~(~HC + ~m + m')), avoiding the full header re-checksum — and the
// packet re-marshal it used to force — on the per-hop forwarding path. It
// reports false, leaving b untouched, when b does not start with an IPv4
// header or the TTL is already zero.
func DecrementTTL(b []byte) bool {
	if len(b) < IPv4HeaderLen || b[0]>>4 != 4 || b[8] == 0 {
		return false
	}
	// m is the 16-bit header word holding TTL (high byte) and protocol.
	m := uint32(binary.BigEndian.Uint16(b[8:10]))
	b[8]--
	m1 := uint32(binary.BigEndian.Uint16(b[8:10]))
	hc := uint32(binary.BigEndian.Uint16(b[10:12]))
	sum := ^hc&0xffff + ^m&0xffff + m1
	sum = (sum & 0xffff) + (sum >> 16)
	sum = (sum & 0xffff) + (sum >> 16)
	binary.BigEndian.PutUint16(b[10:12], ^uint16(sum))
	return true
}
