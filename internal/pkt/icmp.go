package pkt

import (
	"encoding/binary"
	"fmt"
)

// ICMP types the system understands.
const (
	ICMPEchoReply   uint8 = 0
	ICMPUnreachable uint8 = 3
	ICMPEchoRequest uint8 = 8
	ICMPTimeExceed  uint8 = 11
)

// ICMP is an ICMPv4 message; for echo messages ID and Seq are meaningful,
// for errors they carry the unused field.
type ICMP struct {
	Type, Code uint8
	ID, Seq    uint16
	Payload    []byte
}

// ICMPHeaderLen is the fixed ICMP header length.
const ICMPHeaderLen = 8

// AppendTo appends the message to b and checksums it where it lies. It is
// the message's only encoder; Marshal is AppendTo into a fresh buffer.
func (m *ICMP) AppendTo(b []byte) []byte {
	n := len(b)
	b = append(b, m.Type, m.Code, 0, 0) // checksum zero while summing
	b = binary.BigEndian.AppendUint16(b, m.ID)
	b = binary.BigEndian.AppendUint16(b, m.Seq)
	b = append(b, m.Payload...)
	d := b[n:]
	binary.BigEndian.PutUint16(d[2:], Checksum(d))
	return b
}

// Marshal serializes the message with its checksum.
func (m *ICMP) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, ICMPHeaderLen+len(m.Payload)))
}

// DecodeICMP parses and checksum-verifies an ICMPv4 message.
func DecodeICMP(b []byte) (*ICMP, error) {
	var m ICMP
	if err := DecodeICMPInto(&m, b); err != nil {
		return nil, err
	}
	return &m, nil
}

// DecodeICMPInto is DecodeICMP decoding into a caller-provided message; with
// a stack-allocated ICMP it does not allocate. m.Payload aliases b.
func DecodeICMPInto(m *ICMP, b []byte) error {
	if len(b) < ICMPHeaderLen {
		return fmt.Errorf("%w: icmp header", ErrTruncated)
	}
	if Checksum(b) != 0 {
		return fmt.Errorf("pkt: icmp checksum mismatch")
	}
	m.Type, m.Code = b[0], b[1]
	m.ID = binary.BigEndian.Uint16(b[4:])
	m.Seq = binary.BigEndian.Uint16(b[6:])
	m.Payload = b[ICMPHeaderLen:]
	return nil
}

// ICMPTypeCode reads the type and code from the header of the message in b
// without reading its payload; like UDPPorts it checks only that the header
// is whole and leaves the checksum to the receiving host.
func ICMPTypeCode(b []byte) (typ, code uint8, ok bool) {
	if len(b) < ICMPHeaderLen {
		return 0, 0, false
	}
	return b[0], b[1], true
}

// EchoReply builds the reply to an echo request, mirroring ID, Seq and
// payload.
func (m *ICMP) EchoReply() *ICMP {
	return &ICMP{Type: ICMPEchoReply, ID: m.ID, Seq: m.Seq, Payload: m.Payload}
}
