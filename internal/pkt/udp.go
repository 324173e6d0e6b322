package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// UDPHeaderLen is the fixed UDP header length.
const UDPHeaderLen = 8

// UDP is a UDP datagram. The checksum covers the IPv4 pseudo header, so
// marshalling needs the enclosing packet's addresses.
type UDP struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// AppendTo appends the datagram — header, then payload — to b and
// checksums it where it lies, over the given pseudo-header addresses: the
// payload is written once and read once. It is the datagram's only encoder;
// Marshal is AppendTo into a fresh buffer.
func (u *UDP) AppendTo(b []byte, src, dst netip.Addr) []byte {
	n := len(b)
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(UDPHeaderLen+len(u.Payload)))
	b = append(b, 0, 0) // checksum, zero while summing
	b = append(b, u.Payload...)
	d := b[n:]
	ck := checksum(d, pseudoHeaderSum(src, dst, ProtoUDP, len(d)))
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted as all ones
	}
	binary.BigEndian.PutUint16(d[6:], ck)
	return b
}

// Marshal serializes the datagram with a checksum computed over the given
// pseudo-header addresses.
func (u *UDP) Marshal(src, dst netip.Addr) []byte {
	return u.AppendTo(make([]byte, 0, UDPHeaderLen+len(u.Payload)), src, dst)
}

// DecodeUDP parses a UDP datagram. If src and dst are valid IPv4 addresses
// the checksum is verified (a zero checksum means "not computed" and is
// accepted, per RFC 768).
func DecodeUDP(b []byte, src, dst netip.Addr) (*UDP, error) {
	var u UDP
	if err := DecodeUDPInto(&u, b, src, dst); err != nil {
		return nil, err
	}
	return &u, nil
}

// DecodeUDPInto is DecodeUDP decoding into a caller-provided datagram; with
// a stack-allocated UDP it does not allocate. u.Payload aliases b.
func DecodeUDPInto(u *UDP, b []byte, src, dst netip.Addr) error {
	if len(b) < UDPHeaderLen {
		return fmt.Errorf("%w: udp header", ErrTruncated)
	}
	length := int(binary.BigEndian.Uint16(b[4:]))
	if length < UDPHeaderLen || length > len(b) {
		return fmt.Errorf("%w: udp length %d of %d", ErrTruncated, length, len(b))
	}
	if ck := binary.BigEndian.Uint16(b[6:]); ck != 0 && src.Is4() && dst.Is4() {
		if checksum(b[:length], pseudoHeaderSum(src, dst, ProtoUDP, length)) != 0 {
			return fmt.Errorf("pkt: udp checksum mismatch")
		}
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:])
	u.DstPort = binary.BigEndian.Uint16(b[2:])
	u.Payload = b[UDPHeaderLen:length]
	return nil
}

// UDPPorts reads the ports from the header of the datagram in b without
// reading its payload, for classifiers that must not do per-byte work. It
// applies DecodeUDPInto's length checks — a whole header, the length field
// within b — and leaves the checksum to the receiving host.
func UDPPorts(b []byte) (src, dst uint16, ok bool) {
	if len(b) < UDPHeaderLen {
		return 0, 0, false
	}
	if length := int(binary.BigEndian.Uint16(b[4:])); length < UDPHeaderLen || length > len(b) {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(b[0:]), binary.BigEndian.Uint16(b[2:]), true
}
