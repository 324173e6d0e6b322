package openflow

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"routeflow/internal/pkt"
)

// fullDecodeKey is ExtractKey as it was while it still ran the full UDP and
// ICMP decoders, which checksum the whole payload; it is the reference the
// header-only ExtractKey must agree with on every valid frame.
func fullDecodeKey(inPort uint16, frame []byte) (Match, error) {
	k := Match{InPort: inPort}
	var f pkt.Frame
	if err := pkt.DecodeFrameInto(&f, frame); err != nil {
		return k, err
	}
	k.DlSrc, k.DlDst, k.DlType, k.DlVlan = f.Src, f.Dst, uint16(f.Type), 0xffff
	if f.VLANID != 0 {
		k.DlVlan = f.VLANID
	}
	switch f.Type {
	case pkt.EtherTypeIPv4:
		ip, err := pkt.DecodeIPv4(f.Payload)
		if err != nil {
			return k, nil
		}
		k.NwTos, k.NwProto, k.NwSrc, k.NwDst = ip.TOS, uint8(ip.Proto), ip.Src.As4(), ip.Dst.As4()
		switch ip.Proto {
		case pkt.ProtoUDP:
			if u, err := pkt.DecodeUDP(ip.Payload, ip.Src, ip.Dst); err == nil {
				k.TpSrc, k.TpDst = u.SrcPort, u.DstPort
			}
		case pkt.ProtoICMP:
			if m, err := pkt.DecodeICMP(ip.Payload); err == nil {
				k.TpSrc, k.TpDst = uint16(m.Type), uint16(m.Code)
			}
		}
	case pkt.EtherTypeARP:
		if a, err := pkt.DecodeARP(f.Payload); err == nil {
			k.NwProto, k.NwSrc, k.NwDst = uint8(a.Op), a.SenderIP.As4(), a.TargetIP.As4()
		}
	}
	return k, nil
}

// decoderKey is ExtractKey as it was while it ran the generic pkt decoders
// (DecodeFrameInto, DecodeIPv4Into, DecodeARPInto) over the frame. It is the
// reference FuzzExtractKey holds the fixed-offset ExtractKey to on every
// input: the same key, and an error exactly when it gives one.
func decoderKey(inPort uint16, frame []byte) (Match, error) {
	var k Match
	k.InPort = inPort
	var f pkt.Frame
	if err := pkt.DecodeFrameInto(&f, frame); err != nil {
		return k, err
	}
	k.DlSrc, k.DlDst = f.Src, f.Dst
	k.DlType = uint16(f.Type)
	if f.VLANID != 0 {
		k.DlVlan = f.VLANID
	} else {
		k.DlVlan = 0xffff // OFP_VLAN_NONE
	}
	switch f.Type {
	case pkt.EtherTypeIPv4:
		var ip pkt.IPv4
		if err := pkt.DecodeIPv4Into(&ip, f.Payload); err != nil {
			return k, nil
		}
		k.NwTos = ip.TOS
		k.NwProto = uint8(ip.Proto)
		k.NwSrc = ip.Src.As4()
		k.NwDst = ip.Dst.As4()
		switch ip.Proto {
		case pkt.ProtoUDP:
			k.TpSrc, k.TpDst, _ = pkt.UDPPorts(ip.Payload)
		case pkt.ProtoICMP:
			typ, code, _ := pkt.ICMPTypeCode(ip.Payload)
			k.TpSrc, k.TpDst = uint16(typ), uint16(code)
		}
	case pkt.EtherTypeARP:
		var a pkt.ARP
		if err := pkt.DecodeARPInto(&a, f.Payload); err == nil {
			k.NwProto = uint8(a.Op)
			k.NwSrc = a.SenderIP.As4()
			k.NwDst = a.TargetIP.As4()
		}
	}
	return k, nil
}

// malformedKeyFrames are header corruptions the fixed-offset reads must
// treat exactly as the decoders did: each names a check ExtractKey makes.
func malformedKeyFrames() map[string][]byte {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	udp := (&pkt.UDP{SrcPort: 5004, DstPort: 7001, Payload: []byte("abcdefgh")}).Marshal(src, dst)
	ipFrame := func(vlan uint16, ip []byte) []byte {
		return (&pkt.Frame{Dst: pkt.LocalMAC(2), Src: pkt.LocalMAC(1), VLANID: vlan, Type: pkt.EtherTypeIPv4, Payload: ip}).Marshal()
	}
	ip := (&pkt.IPv4{TTL: 9, Proto: pkt.ProtoUDP, Src: src, Dst: dst, Payload: udp}).Marshal()
	badSum := append([]byte(nil), ip...)
	badSum[10] ^= 0xff
	// IHL 6: a 4-byte option, checksum repaired, so the header is valid and
	// the ports sit 24 bytes in.
	opt := append(append([]byte(nil), ip[:20]...), 1, 1, 1, 0)
	opt = append(opt, udp...)
	opt[0] = 0x46
	binary.BigEndian.PutUint16(opt[2:], uint16(len(opt)))
	opt[10], opt[11] = 0, 0
	binary.BigEndian.PutUint16(opt[10:], pkt.Checksum(opt[:24]))
	// The same header with its checksum computed over the first 20 bytes
	// only: the option words must be covered too.
	optSum20 := append([]byte(nil), opt...)
	optSum20[10], optSum20[11] = 0, 0
	binary.BigEndian.PutUint16(optSum20[10:], pkt.Checksum(optSum20[:20]))
	withTotal := func(total uint16) []byte {
		b := append([]byte(nil), ip...)
		binary.BigEndian.PutUint16(b[2:], total)
		b[10], b[11] = 0, 0
		binary.BigEndian.PutUint16(b[10:], pkt.Checksum(b[:20]))
		return b
	}
	arp := pkt.NewARPRequest(pkt.LocalMAC(1), src, dst).Marshal()
	arpWith := func(i int, v byte) []byte {
		b := append([]byte(nil), arp...)
		b[i] = v
		return (&pkt.Frame{Dst: pkt.BroadcastMAC, Src: pkt.LocalMAC(1), Type: pkt.EtherTypeARP, Payload: b}).Marshal()
	}
	// A tag with VLAN id 0 (priority-only): the frame reads as untagged.
	vlan0 := ipFrame(7, ip)
	vlan0[14], vlan0[15] = 0xe0, 0 // PCP 7, id 0
	return map[string][]byte{
		"ipv4 header checksum corrupted": ipFrame(0, badSum),
		"ipv4 IHL 6 with option":         ipFrame(0, opt),
		"ipv4 IHL 6 checksum over 20 B":  ipFrame(0, optSum20),
		"ipv4 total length below IHL":    ipFrame(0, withTotal(19)),
		"ipv4 total length past frame":   ipFrame(0, withTotal(uint16(len(ip)+1))),
		"vlan id 0":                      vlan0,
		"arp htype 6":                    arpWith(1, 6),
		"arp hlen 8":                     arpWith(4, 8),
		"arp plen 16":                    arpWith(5, 16),
	}
}

// TestExtractKeyMatchesDecoders: on the header corruptions of
// malformedKeyFrames, ExtractKey agrees with the decoder-based reference,
// and each corruption does what its name says to the key.
func TestExtractKeyMatchesDecoders(t *testing.T) {
	frames := malformedKeyFrames()
	for name, frame := range frames {
		got, err := ExtractKey(4, frame)
		want, wantErr := decoderKey(4, frame)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Errorf("%s: key %v (%v), reference %v (%v)", name, &got, err, &want, wantErr)
		}
	}
	l3Kept := func(name string) bool {
		k, _ := ExtractKey(4, frames[name])
		return k.NwDst != [4]byte{}
	}
	for name, kept := range map[string]bool{
		"ipv4 header checksum corrupted": false, "ipv4 IHL 6 with option": true,
		"ipv4 IHL 6 checksum over 20 B": false, "ipv4 total length below IHL": false,
		"ipv4 total length past frame": false, "vlan id 0": true,
		"arp htype 6": false, "arp hlen 8": false, "arp plen 16": false,
	} {
		if l3Kept(name) != kept {
			t.Errorf("%s: L3 fields kept = %v, want %v", name, !kept, kept)
		}
	}
	if k, _ := ExtractKey(4, frames["ipv4 IHL 6 with option"]); k.TpSrc != 5004 || k.TpDst != 7001 {
		t.Errorf("IHL 6: ports %d/%d, want 5004/7001 after the option", k.TpSrc, k.TpDst)
	}
	if k, _ := ExtractKey(4, frames["vlan id 0"]); k.DlVlan != 0xffff || k.DlType != uint16(pkt.EtherTypeIPv4) {
		t.Errorf("vlan id 0: dl_vlan %#x dl_type %#x, want 0xffff and IPv4", k.DlVlan, k.DlType)
	}
	for _, runt := range [][]byte{nil, make([]byte, 13), {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x81, 0, 0, 1, 8}} {
		k, err := ExtractKey(4, runt)
		if !errors.Is(err, pkt.ErrTruncated) || k != (Match{InPort: 4}) {
			t.Errorf("runt of %d B: key %v, err %v; want in_port only and ErrTruncated", len(runt), &k, err)
		}
	}
}

// keyTestFrame is one generated frame and the offset where the headers its
// key is read from end (len(frame) when the key reads the whole of it).
type keyTestFrame struct {
	name       string
	frame      []byte
	headersEnd int
}

// keyTestFrames generates valid frames of every shape ExtractKey parses:
// UDP and ICMP with payloads of 0–1472 bytes, tagged and untagged, other IP
// protocols, ARP and a non-IP EtherType.
func keyTestFrames(r *rand.Rand, n int) []keyTestFrame {
	addr := func() netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(r.Intn(256)), byte(r.Intn(256)), byte(1 + r.Intn(254))})
	}
	var out []keyTestFrame
	for i := 0; i < n; i++ {
		f := &pkt.Frame{Dst: pkt.LocalMAC(r.Uint64()), Src: pkt.LocalMAC(r.Uint64()), Type: pkt.EtherTypeIPv4}
		if r.Intn(4) == 0 {
			f.VLANID = uint16(1 + r.Intn(4094))
		}
		l2 := pkt.EthernetHeaderLen
		if f.VLANID != 0 {
			l2 += 4
		}
		payload := make([]byte, r.Intn(1473))
		r.Read(payload)
		ip := &pkt.IPv4{TOS: uint8(r.Intn(256)), ID: uint16(r.Intn(1 << 16)), TTL: uint8(1 + r.Intn(255)),
			Src: addr(), Dst: addr()}
		kt := keyTestFrame{}
		switch i % 6 {
		case 0, 1:
			kt.name, kt.headersEnd = "udp", l2+pkt.IPv4HeaderLen+pkt.UDPHeaderLen
			ip.Proto = pkt.ProtoUDP
			u := &pkt.UDP{SrcPort: uint16(r.Intn(1 << 16)), DstPort: uint16(r.Intn(1 << 16)), Payload: payload}
			ip.Payload = u.Marshal(ip.Src, ip.Dst)
		case 2:
			kt.name, kt.headersEnd = "icmp", l2+pkt.IPv4HeaderLen+pkt.ICMPHeaderLen
			ip.Proto = pkt.ProtoICMP
			m := &pkt.ICMP{Type: pkt.ICMPEchoRequest, Code: uint8(r.Intn(4)), ID: 7, Seq: uint16(i), Payload: payload}
			ip.Payload = m.Marshal()
		case 3:
			kt.name, kt.headersEnd = "ospf", l2+pkt.IPv4HeaderLen
			ip.Proto, ip.Payload = pkt.ProtoOSPF, payload
		case 4:
			kt.name, f.Type = "arp", pkt.EtherTypeARP
			f.Payload = pkt.NewARPRequest(f.Src, addr(), addr()).Marshal()
		case 5:
			kt.name, f.Type, f.Payload = "lldp", pkt.EtherTypeLLDP, payload
		}
		if f.Type == pkt.EtherTypeIPv4 {
			f.Payload = ip.Marshal()
		}
		kt.frame = f.Marshal()
		if kt.headersEnd == 0 {
			kt.headersEnd = len(kt.frame)
		}
		out = append(out, kt)
	}
	return out
}

// TestExtractKeyHeaderOnly: on valid frames the key is the one the full
// decoders gave, and no byte after the L4 header can change it.
func TestExtractKeyHeaderOnly(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, kt := range keyTestFrames(r, 1000) {
		want, wantErr := fullDecodeKey(3, kt.frame)
		got, err := ExtractKey(3, kt.frame)
		if err != nil || wantErr != nil {
			t.Fatalf("%s: valid frame rejected: %v / %v", kt.name, err, wantErr)
		}
		if got != want {
			t.Fatalf("%s frame of %d B:\n  header-only %v\n  full decode %v", kt.name, len(kt.frame), &got, &want)
		}
		scrambled := append([]byte(nil), kt.frame...)
		r.Read(scrambled[kt.headersEnd:])
		if again, err := ExtractKey(3, scrambled); err != nil || again != got {
			t.Fatalf("%s: key depends on bytes after the L4 header:\n  intact    %v\n  scrambled %v (%v)", kt.name, &got, &again, err)
		}
	}
}

// TestExtractKeyMalformedL4: the cases the doc comment lists leave the
// ports zero and the L3 fields set, exactly as the full decoders did.
func TestExtractKeyMalformedL4(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	build := func(proto pkt.IPProto, l4 []byte) []byte {
		ip := &pkt.IPv4{TTL: 9, Proto: proto, Src: src, Dst: dst, Payload: l4}
		return (&pkt.Frame{Dst: pkt.LocalMAC(2), Src: pkt.LocalMAC(1), Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
	}
	udp := (&pkt.UDP{SrcPort: 5004, DstPort: 7001, Payload: []byte("abcdefgh")}).Marshal(src, dst)
	longLen := append([]byte(nil), udp...)
	longLen[5]++ // length field one past the IP payload
	shortLen := append([]byte(nil), udp...)
	shortLen[4], shortLen[5] = 0, 7
	icmp := (&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 1, Seq: 1}).Marshal()
	for name, frame := range map[string][]byte{
		"udp header truncated":   build(pkt.ProtoUDP, udp[:7]),
		"udp length past packet": build(pkt.ProtoUDP, longLen),
		"udp length below 8":     build(pkt.ProtoUDP, shortLen),
		"icmp header truncated":  build(pkt.ProtoICMP, icmp[:7]),
	} {
		got, err := ExtractKey(1, frame)
		want, _ := fullDecodeKey(1, frame)
		if err != nil || got != want || got.TpSrc != 0 || got.TpDst != 0 || got.NwDst != dst.As4() {
			t.Errorf("%s: key %v (%v), want %v", name, &got, err, &want)
		}
	}
	// A payload corrupted in flight is the one input the two disagree on:
	// the switch still classifies it by its ports; the host drops it.
	bad := build(pkt.ProtoUDP, udp)
	bad[len(bad)-1] ^= 0x01
	if got, _ := ExtractKey(1, bad); got.TpSrc != 5004 || got.TpDst != 7001 {
		t.Errorf("corrupt payload changed the key: %v", &got)
	}
	if ref, _ := fullDecodeKey(1, bad); ref.TpDst != 0 {
		t.Errorf("reference accepted a corrupt payload: %v", &ref)
	}
}
