package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// TCPHeaderLen is the fixed header length this codec emits (no options).
const TCPHeaderLen = 20

// TCP control flags.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// TCP is one TCP segment of the vnet's TCP-like channels: a standard 20-byte
// header (no options) around an opaque payload. The emulated cables deliver
// in order and without loss, so the routing stacks that ride on this —
// bgpd's port-179 sessions — treat one segment as one protocol message and
// leave retransmission to their own session FSMs; the sequence numbers exist
// so a receiver can drop duplicates and the wire format stays faithful.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Payload          []byte
}

// Marshal serializes the segment with a checksum over the given
// pseudo-header addresses.
func (t *TCP) Marshal(src, dst netip.Addr) []byte {
	b := make([]byte, TCPHeaderLen+len(t.Payload))
	binary.BigEndian.PutUint16(b[0:], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:], t.DstPort)
	binary.BigEndian.PutUint32(b[4:], t.Seq)
	binary.BigEndian.PutUint32(b[8:], t.Ack)
	b[12] = (TCPHeaderLen / 4) << 4 // data offset in 32-bit words
	b[13] = t.Flags
	binary.BigEndian.PutUint16(b[14:], t.Window)
	copy(b[TCPHeaderLen:], t.Payload)
	binary.BigEndian.PutUint16(b[16:], checksum(b, pseudoHeaderSum(src, dst, ProtoTCP, len(b))))
	return b
}

// DecodeTCP parses a TCP segment. If src and dst are valid IPv4 addresses
// the checksum is verified.
func DecodeTCP(b []byte, src, dst netip.Addr) (*TCP, error) {
	var t TCP
	if err := DecodeTCPInto(&t, b, src, dst); err != nil {
		return nil, err
	}
	return &t, nil
}

// DecodeTCPInto is DecodeTCP decoding into a caller-provided segment; with a
// stack-allocated TCP it does not allocate. t.Payload aliases b.
func DecodeTCPInto(t *TCP, b []byte, src, dst netip.Addr) error {
	if len(b) < TCPHeaderLen {
		return fmt.Errorf("%w: tcp header", ErrTruncated)
	}
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return fmt.Errorf("%w: tcp data offset %d of %d", ErrTruncated, off, len(b))
	}
	if src.Is4() && dst.Is4() && checksum(b, pseudoHeaderSum(src, dst, ProtoTCP, len(b))) != 0 {
		return fmt.Errorf("pkt: tcp checksum mismatch")
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:])
	t.DstPort = binary.BigEndian.Uint16(b[2:])
	t.Seq = binary.BigEndian.Uint32(b[4:])
	t.Ack = binary.BigEndian.Uint32(b[8:])
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:])
	t.Payload = b[off:]
	return nil
}
