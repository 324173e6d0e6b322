// Package pkt implements the packet layers the system puts on the wire:
// Ethernet II framing, ARP, IPv4 (with header checksums), UDP, ICMP echo and
// LLDP (IEEE 802.1AB TLVs, as used by the NOX-style topology discovery
// module). The design follows the gopacket layering conventions — every
// layer decodes from bytes and serializes back to bytes, and round-tripping
// is a tested invariant — but is dependency-free and limited to the
// protocols this reproduction needs.
package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// MAC is a 48-bit Ethernet address. Being an array it is comparable and can
// key maps, following the gopacket Endpoint rationale.
type MAC [6]byte

// Well-known addresses.
var (
	// BroadcastMAC is ff:ff:ff:ff:ff:ff.
	BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	// LLDPMulticast is the 802.1AB nearest-bridge group address LLDP
	// frames are sent to.
	LLDPMulticast = MAC{0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e}
)

// String renders the address in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IsZero reports whether m is all zeros (unset).
func (m MAC) IsZero() bool { return m == MAC{} }

// LocalMAC derives a deterministic locally-administered unicast MAC from a
// 40-bit identifier; the system uses it to number switch ports and VM
// interfaces ("02:" prefix = locally administered, unicast).
func LocalMAC(id uint64) MAC {
	var m MAC
	m[0] = 0x02
	m[1] = byte(id >> 32)
	m[2] = byte(id >> 24)
	m[3] = byte(id >> 16)
	m[4] = byte(id >> 8)
	m[5] = byte(id)
	return m
}

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes used by the system.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
	EtherTypeVLAN EtherType = 0x8100
	EtherTypeLLDP EtherType = 0x88cc
)

// String names the well-known EtherTypes.
func (t EtherType) String() string {
	switch t {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeARP:
		return "ARP"
	case EtherTypeVLAN:
		return "VLAN"
	case EtherTypeLLDP:
		return "LLDP"
	default:
		return fmt.Sprintf("EtherType(0x%04x)", uint16(t))
	}
}

// EthernetHeaderLen is the length of an untagged Ethernet II header.
const EthernetHeaderLen = 14

// Frame is an Ethernet II frame. VLANID is nonzero only when an 802.1Q tag
// is present (VLANID 0 with a tag is not supported; the system never emits
// priority-tagged frames).
type Frame struct {
	Dst, Src MAC
	VLANID   uint16 // 0 = untagged
	Type     EtherType
	Payload  []byte
}

// headerLen is the encoded header size: 14 bytes, 18 with an 802.1Q tag.
func (f *Frame) headerLen() int {
	if f.VLANID != 0 {
		return EthernetHeaderLen + 4
	}
	return EthernetHeaderLen
}

// AppendHeader appends the Ethernet header (with its 802.1Q tag, if any) to
// b; f.Payload is not consulted. It is the frame's only encoder: callers
// that build a frame in one buffer append the inner layers after it, and
// Marshal is AppendHeader plus the payload.
func (f *Frame) AppendHeader(b []byte) []byte {
	b = append(b, f.Dst[:]...)
	b = append(b, f.Src[:]...)
	if f.VLANID != 0 {
		b = binary.BigEndian.AppendUint16(b, uint16(EtherTypeVLAN))
		b = binary.BigEndian.AppendUint16(b, f.VLANID&0x0fff)
	}
	return binary.BigEndian.AppendUint16(b, uint16(f.Type))
}

// Marshal serializes the frame (no FCS, like a kernel-space frame).
func (f *Frame) Marshal() []byte {
	b := make([]byte, 0, f.headerLen()+len(f.Payload))
	return append(f.AppendHeader(b), f.Payload...)
}

// ErrTruncated is returned when a buffer is too short for the layer being
// decoded.
var ErrTruncated = errors.New("pkt: truncated packet")

// DecodeFrame parses an Ethernet II frame, unwrapping at most one 802.1Q
// tag. The returned frame's Payload aliases b.
func DecodeFrame(b []byte) (*Frame, error) {
	var f Frame
	if err := DecodeFrameInto(&f, b); err != nil {
		return nil, err
	}
	return &f, nil
}

// DecodeFrameInto is DecodeFrame decoding into a caller-provided Frame; with
// a stack-allocated Frame it does not allocate, which matters on the
// per-packet dataplane path. f.Payload aliases b.
func DecodeFrameInto(f *Frame, b []byte) error {
	if len(b) < EthernetHeaderLen {
		return fmt.Errorf("%w: ethernet header needs %d bytes, have %d",
			ErrTruncated, EthernetHeaderLen, len(b))
	}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	et := EtherType(binary.BigEndian.Uint16(b[12:14]))
	off := 14
	f.VLANID = 0
	if et == EtherTypeVLAN {
		if len(b) < 18 {
			return fmt.Errorf("%w: vlan tag", ErrTruncated)
		}
		f.VLANID = binary.BigEndian.Uint16(b[14:16]) & 0x0fff
		et = EtherType(binary.BigEndian.Uint16(b[16:18]))
		off = 18
	}
	f.Type = et
	f.Payload = b[off:]
	return nil
}

// mustAddr4 converts a netip.Addr to its 4-byte form, panicking on non-IPv4;
// callers validate first.
func mustAddr4(a netip.Addr) [4]byte {
	if !a.Is4() {
		panic("pkt: address is not IPv4: " + a.String())
	}
	return a.As4()
}
