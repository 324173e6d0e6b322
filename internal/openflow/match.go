package openflow

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"

	"routeflow/internal/pkt"
)

// Wildcard flag bits of ofp_match.wildcards (OpenFlow 1.0 §5.2.3).
const (
	WildcardInPort     uint32 = 1 << 0
	WildcardDlVlan     uint32 = 1 << 1
	WildcardDlSrc      uint32 = 1 << 2
	WildcardDlDst      uint32 = 1 << 3
	WildcardDlType     uint32 = 1 << 4
	WildcardNwProto    uint32 = 1 << 5
	WildcardTpSrc      uint32 = 1 << 6
	WildcardTpDst      uint32 = 1 << 7
	wildcardNwSrcShift        = 8
	wildcardNwDstShift        = 14
	WildcardNwSrcMask  uint32 = 0x3f << wildcardNwSrcShift
	WildcardNwDstMask  uint32 = 0x3f << wildcardNwDstShift
	WildcardDlVlanPcp  uint32 = 1 << 20
	WildcardNwTos      uint32 = 1 << 21
	// WildcardAll wildcards every field.
	WildcardAll uint32 = (1 << 22) - 1
)

// MatchLen is the encoded size of ofp_match.
const MatchLen = 40

// Match is the OpenFlow 1.0 12-tuple flow match. NwSrc/NwDst prefix
// wildcarding is encoded in Wildcards per the spec: the 6-bit subfields
// give the number of low-order bits to ignore (>=32 wildcards the field).
type Match struct {
	Wildcards    uint32
	InPort       uint16
	DlSrc, DlDst pkt.MAC
	DlVlan       uint16
	DlVlanPcp    uint8
	DlType       uint16
	NwTos        uint8
	NwProto      uint8
	NwSrc, NwDst [4]byte
	TpSrc, TpDst uint16
}

// MatchAll returns the fully wildcarded match.
func MatchAll() Match { return Match{Wildcards: WildcardAll} }

// NwSrcIgnoredBits returns how many low-order bits of NwSrc are ignored
// (0 = exact, >=32 = fully wildcarded).
func (m *Match) NwSrcIgnoredBits() int {
	return int((m.Wildcards & WildcardNwSrcMask) >> wildcardNwSrcShift)
}

// NwDstIgnoredBits returns how many low-order bits of NwDst are ignored.
func (m *Match) NwDstIgnoredBits() int {
	return int((m.Wildcards & WildcardNwDstMask) >> wildcardNwDstShift)
}

// SetNwSrcPrefix sets NwSrc to match the given prefix.
func (m *Match) SetNwSrcPrefix(p netip.Prefix) {
	m.NwSrc = p.Addr().As4()
	ignored := uint32(32 - p.Bits())
	m.Wildcards = m.Wildcards&^WildcardNwSrcMask | ignored<<wildcardNwSrcShift
}

// SetNwDstPrefix sets NwDst to match the given prefix.
func (m *Match) SetNwDstPrefix(p netip.Prefix) {
	m.NwDst = p.Addr().As4()
	ignored := uint32(32 - p.Bits())
	m.Wildcards = m.Wildcards&^WildcardNwDstMask | ignored<<wildcardNwDstShift
}

// NwDstPrefix reports the destination prefix this match selects.
func (m *Match) NwDstPrefix() netip.Prefix {
	bits := 32 - m.NwDstIgnoredBits()
	if bits < 0 {
		bits = 0
	}
	return netip.PrefixFrom(netip.AddrFrom4(m.NwDst), bits).Masked()
}

// FNV-1a 64-bit parameters (hash/fnv, inlined so the hot path stays
// alloc-free and inlinable).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeyHash hashes the exact-match key form of m — the canonical identity of
// one microflow, as produced by ExtractKey — into 64 bits suitable for
// indexing a fixed-size exact-match cache. It is alloc-free and runs on the
// dataplane's per-packet path. Wildcards participate in the hash, so a key
// and a wildcarded match never alias unless they are structurally equal;
// Match is comparable, so cache consumers verify candidates with ==.
func (m *Match) KeyHash() uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ (uint64(m.InPort) | uint64(m.DlVlan)<<16 | uint64(m.DlType)<<32 |
		uint64(m.DlVlanPcp)<<48 | uint64(m.NwTos)<<56)) * fnvPrime64
	h = (h ^ (macBits(m.DlSrc) | uint64(m.NwProto)<<48 | uint64(m.Wildcards&0xff)<<56)) * fnvPrime64
	h = (h ^ (macBits(m.DlDst) | uint64(m.TpSrc)<<48)) * fnvPrime64
	h = (h ^ (uint64(addr4ToU32(m.NwSrc)) | uint64(addr4ToU32(m.NwDst))<<32)) * fnvPrime64
	h = (h ^ (uint64(m.TpDst) | uint64(m.Wildcards)<<16)) * fnvPrime64
	// Avalanche finalizer (murmur3 fmix64): FNV's multiply only carries
	// entropy upward, so without this, key fields mixed into high bits
	// would never influence the low bits a power-of-two cache indexes by —
	// same-port microflows differing only in address/port octets would
	// pile into a handful of slots.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func macBits(m pkt.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

func prefixMask(ignoredBits int) uint32 {
	if ignoredBits >= 32 {
		return 0
	}
	if ignoredBits <= 0 {
		return ^uint32(0)
	}
	return ^uint32(0) << uint(ignoredBits)
}

func addr4ToU32(a [4]byte) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// Covers reports whether m matches the exact packet key k (a Match with no
// wildcards, as produced by ExtractKey). Fields wildcarded in m are ignored;
// all others must be equal, with prefix semantics for nw_src/nw_dst.
func (m *Match) Covers(k *Match) bool {
	w := m.Wildcards
	if w&WildcardInPort == 0 && m.InPort != k.InPort {
		return false
	}
	if w&WildcardDlSrc == 0 && m.DlSrc != k.DlSrc {
		return false
	}
	if w&WildcardDlDst == 0 && m.DlDst != k.DlDst {
		return false
	}
	if w&WildcardDlVlan == 0 && m.DlVlan != k.DlVlan {
		return false
	}
	if w&WildcardDlVlanPcp == 0 && m.DlVlanPcp != k.DlVlanPcp {
		return false
	}
	if w&WildcardDlType == 0 && m.DlType != k.DlType {
		return false
	}
	if w&WildcardNwTos == 0 && m.NwTos != k.NwTos {
		return false
	}
	if w&WildcardNwProto == 0 && m.NwProto != k.NwProto {
		return false
	}
	if mask := prefixMask(m.NwSrcIgnoredBits()); addr4ToU32(m.NwSrc)&mask != addr4ToU32(k.NwSrc)&mask {
		return false
	}
	if mask := prefixMask(m.NwDstIgnoredBits()); addr4ToU32(m.NwDst)&mask != addr4ToU32(k.NwDst)&mask {
		return false
	}
	if w&WildcardTpSrc == 0 && m.TpSrc != k.TpSrc {
		return false
	}
	if w&WildcardTpDst == 0 && m.TpDst != k.TpDst {
		return false
	}
	return true
}

// ExtractKey classifies an Ethernet frame received on inPort into an exact
// match key, following OpenFlow 1.0 header-parsing rules (fields beyond the
// parsed protocol stay zero). It runs on the dataplane's per-packet path,
// does not allocate, and reads headers only, at fixed offsets in frame: its
// cost and its result do not depend on any byte after the L4 header. The
// IPv4 header checksum is verified (a packet that fails it, or whose version,
// IHL or total length is inconsistent, keeps its L2 fields only); UDP and
// ICMP checksums are not — the receiving host is their only verifier, so a
// datagram corrupted in flight is forwarded like a switch would and dropped,
// and counted, at the host (netemu.Host.RxDiscards).
//
// A frame too short for its Ethernet header or VLAN tag is an error wrapping
// pkt.ErrTruncated, with a key of InPort only. A VLAN tag with id 0 reads as
// untagged (dl_vlan 0xffff, OFP_VLAN_NONE). tp_src/tp_dst stay zero on an
// otherwise valid IPv4 packet in exactly two cases: the L4 header is
// truncated (fewer than 8 bytes of IP payload), or the UDP length field is
// below 8 or runs past the IP payload.
func ExtractKey(inPort uint16, frame []byte) (Match, error) {
	var k Match
	err := ExtractKeyInto(&k, inPort, frame)
	return k, err
}

// Errors ExtractKeyInto returns; preallocated so a runt costs no allocation.
var (
	errShortEthernet = fmt.Errorf("%w: ethernet header", pkt.ErrTruncated)
	errShortVLAN     = fmt.Errorf("%w: vlan tag", pkt.ErrTruncated)
)

// ExtractKeyInto is ExtractKey writing the key into *k, which it overwrites
// whole; the burst dataplane extracts straight into its key array.
func ExtractKeyInto(k *Match, inPort uint16, frame []byte) error {
	*k = Match{InPort: inPort}
	if len(frame) < pkt.EthernetHeaderLen {
		return errShortEthernet
	}
	et := binary.BigEndian.Uint16(frame[12:])
	vlan, l3 := uint16(0xffff), frame[pkt.EthernetHeaderLen:]
	if et == uint16(pkt.EtherTypeVLAN) {
		if len(frame) < pkt.EthernetHeaderLen+4 {
			return errShortVLAN
		}
		if vid := binary.BigEndian.Uint16(frame[14:]) & 0x0fff; vid != 0 {
			vlan = vid
		}
		et, l3 = binary.BigEndian.Uint16(frame[16:]), frame[18:]
	}
	k.DlDst, k.DlSrc = pkt.MAC(frame[0:6]), pkt.MAC(frame[6:12])
	k.DlVlan, k.DlType = vlan, et
	switch pkt.EtherType(et) {
	case pkt.EtherTypeIPv4:
		if len(l3) < pkt.IPv4HeaderLen || l3[0]>>4 != 4 {
			return nil // not further classifiable; L2 fields still valid
		}
		ihl := int(l3[0]&0x0f) * 4
		if ihl < pkt.IPv4HeaderLen || len(l3) < ihl || pkt.Checksum(l3[:ihl]) != 0 {
			return nil
		}
		total := int(binary.BigEndian.Uint16(l3[2:]))
		if total < ihl || total > len(l3) {
			return nil
		}
		k.NwTos, k.NwProto = l3[1], l3[9]
		k.NwSrc, k.NwDst = [4]byte(l3[12:16]), [4]byte(l3[16:20])
		switch l4 := l3[ihl:total]; pkt.IPProto(k.NwProto) {
		case pkt.ProtoUDP:
			k.TpSrc, k.TpDst, _ = pkt.UDPPorts(l4)
		case pkt.ProtoICMP:
			typ, code, _ := pkt.ICMPTypeCode(l4)
			k.TpSrc, k.TpDst = uint16(typ), uint16(code)
		}
	case pkt.EtherTypeARP:
		// IPv4-over-Ethernet ARP only; OF1.0 carries the opcode in nw_proto.
		if len(l3) >= pkt.ARPLen && binary.BigEndian.Uint16(l3[0:]) == 1 &&
			binary.BigEndian.Uint16(l3[2:]) == uint16(pkt.EtherTypeIPv4) && l3[4] == 6 && l3[5] == 4 {
			k.NwProto = uint8(binary.BigEndian.Uint16(l3[6:]))
			k.NwSrc, k.NwDst = [4]byte(l3[14:18]), [4]byte(l3[24:28])
		}
	}
	return nil
}

func (m *Match) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.Wildcards)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	b = append(b, m.DlSrc[:]...)
	b = append(b, m.DlDst[:]...)
	b = binary.BigEndian.AppendUint16(b, m.DlVlan)
	b = append(b, m.DlVlanPcp, 0)
	b = binary.BigEndian.AppendUint16(b, m.DlType)
	b = append(b, m.NwTos, m.NwProto, 0, 0)
	b = append(b, m.NwSrc[:]...)
	b = append(b, m.NwDst[:]...)
	b = binary.BigEndian.AppendUint16(b, m.TpSrc)
	b = binary.BigEndian.AppendUint16(b, m.TpDst)
	return b
}

// decode reads m from the first MatchLen bytes of b, which the caller has
// checked are there.
func (m *Match) decode(b []byte) {
	_ = b[MatchLen-1]
	m.Wildcards = binary.BigEndian.Uint32(b)
	m.InPort = binary.BigEndian.Uint16(b[4:])
	m.DlSrc, m.DlDst = pkt.MAC(b[6:12]), pkt.MAC(b[12:18])
	m.DlVlan = binary.BigEndian.Uint16(b[18:])
	m.DlVlanPcp = b[20]
	m.DlType = binary.BigEndian.Uint16(b[22:])
	m.NwTos, m.NwProto = b[24], b[25]
	m.NwSrc, m.NwDst = [4]byte(b[28:32]), [4]byte(b[32:36])
	m.TpSrc = binary.BigEndian.Uint16(b[36:])
	m.TpDst = binary.BigEndian.Uint16(b[38:])
}

// String renders only the non-wildcarded fields.
func (m *Match) String() string {
	if m.Wildcards == WildcardAll {
		return "match{*}"
	}
	var parts []string
	add := func(bit uint32, f string, v any) {
		if m.Wildcards&bit == 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", f, v))
		}
	}
	add(WildcardInPort, "in_port", m.InPort)
	add(WildcardDlSrc, "dl_src", m.DlSrc)
	add(WildcardDlDst, "dl_dst", m.DlDst)
	add(WildcardDlType, "dl_type", fmt.Sprintf("0x%04x", m.DlType))
	add(WildcardNwProto, "nw_proto", m.NwProto)
	if m.NwSrcIgnoredBits() < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%v/%d", netip.AddrFrom4(m.NwSrc), 32-m.NwSrcIgnoredBits()))
	}
	if m.NwDstIgnoredBits() < 32 {
		parts = append(parts, fmt.Sprintf("nw_dst=%v/%d", netip.AddrFrom4(m.NwDst), 32-m.NwDstIgnoredBits()))
	}
	add(WildcardTpSrc, "tp_src", m.TpSrc)
	add(WildcardTpDst, "tp_dst", m.TpDst)
	return "match{" + strings.Join(parts, ",") + "}"
}
