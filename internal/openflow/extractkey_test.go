package openflow

import (
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
