package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARP is an IPv4-over-Ethernet ARP packet (HTYPE=1, PTYPE=0x0800).
type ARP struct {
	Op                 uint16
	SenderHW, TargetHW MAC
	SenderIP, TargetIP netip.Addr
}

// ARPLen is the length of an IPv4-over-Ethernet ARP packet.
const ARPLen = 28

// AppendTo appends the 28-byte ARP packet to b. It is the packet's only
// encoder; Marshal is AppendTo into a fresh buffer.
func (a *ARP) AppendTo(b []byte) []byte {
	sip, tip := mustAddr4(a.SenderIP), mustAddr4(a.TargetIP)
	b = binary.BigEndian.AppendUint16(b, 1)                     // HTYPE ethernet
	b = binary.BigEndian.AppendUint16(b, uint16(EtherTypeIPv4)) // PTYPE
	b = append(b, 6, 4)                                         // HLEN, PLEN
	b = binary.BigEndian.AppendUint16(b, a.Op)
	b = append(b, a.SenderHW[:]...)
	b = append(b, sip[:]...)
	b = append(b, a.TargetHW[:]...)
	return append(b, tip[:]...)
}

// Marshal serializes the ARP packet.
func (a *ARP) Marshal() []byte { return a.AppendTo(make([]byte, 0, ARPLen)) }

// DecodeARP parses an IPv4-over-Ethernet ARP packet.
func DecodeARP(b []byte) (*ARP, error) {
	var a ARP
	if err := DecodeARPInto(&a, b); err != nil {
		return nil, err
	}
	return &a, nil
}

// DecodeARPInto is DecodeARP decoding into a caller-provided packet; with a
// stack-allocated ARP it does not allocate.
func DecodeARPInto(a *ARP, b []byte) error {
	if len(b) < ARPLen {
		return fmt.Errorf("%w: arp needs %d bytes, have %d", ErrTruncated, ARPLen, len(b))
	}
	if ht := binary.BigEndian.Uint16(b[0:]); ht != 1 {
		return fmt.Errorf("pkt: unsupported ARP hardware type %d", ht)
	}
	if pt := EtherType(binary.BigEndian.Uint16(b[2:])); pt != EtherTypeIPv4 {
		return fmt.Errorf("pkt: unsupported ARP protocol type %v", pt)
	}
	if b[4] != 6 || b[5] != 4 {
		return fmt.Errorf("pkt: unsupported ARP address lengths %d/%d", b[4], b[5])
	}
	a.Op = binary.BigEndian.Uint16(b[6:])
	copy(a.SenderHW[:], b[8:14])
	a.SenderIP = netip.AddrFrom4([4]byte(b[14:18]))
	copy(a.TargetHW[:], b[18:24])
	a.TargetIP = netip.AddrFrom4([4]byte(b[24:28]))
	return nil
}

// NewARPRequest builds a who-has request for target sent from (hw, ip).
func NewARPRequest(hw MAC, ip, target netip.Addr) *ARP {
	return &ARP{Op: ARPRequest, SenderHW: hw, SenderIP: ip, TargetIP: target}
}

// Reply builds the matching is-at reply from the responder's address pair.
func (a *ARP) Reply(hw MAC, ip netip.Addr) *ARP {
	return &ARP{
		Op:       ARPReply,
		SenderHW: hw, SenderIP: ip,
		TargetHW: a.SenderHW, TargetIP: a.SenderIP,
	}
}
