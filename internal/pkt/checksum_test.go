package pkt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// naiveChecksum is the 16-bit-at-a-time RFC 1071 loop the package used
// before the wide kernel; it stays here as the reference.
func naiveChecksum(b []byte, initial uint32) uint16 {
	sum := uint64(initial)
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint64(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint64(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

func TestChecksumKernelMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	check := func(b []byte, initial uint32) {
		t.Helper()
		if got, want := checksum(b, initial), naiveChecksum(b, initial); got != want {
			t.Fatalf("len %d initial %#x: kernel %#04x, naive %#04x", len(b), initial, got, want)
		}
	}
	ones := bytes.Repeat([]byte{0xff}, 2000)
	zeros := make([]byte, 2000)
	buf := make([]byte, 2000+7)
	for n := 0; n <= 2000; n++ {
		r.Read(buf)
		// Every length at every alignment of the 8-byte loads, with a zero,
		// a pseudo-header-sized and a full-width initial sum.
		b := buf[n%8:][:n]
		check(b, 0)
		check(b, uint32(r.Intn(6*0xffff)))
		check(b, r.Uint32())
		// All-ones data carries out of every 64-bit add; all-zero data with
		// a zero initial sum is the one input whose sum is +0, not -0.
		check(ones[:n], 0)
		check(ones[:n], 0xffffffff)
		check(zeros[:n], 0)
		check(zeros[:n], r.Uint32())
	}
}

// TestChecksum20MatchesLoop pins the 20-byte header path against the
// general loop: random headers, all-ones headers (carries out of every
// word), and the sums at the ±0 boundary — all zero (+0, checksum 0xffff)
// and nonzero multiples of 0xffff (-0, checksum 0).
func TestChecksum20MatchesLoop(t *testing.T) {
	check := func(h []byte) {
		t.Helper()
		if got, want := Checksum(h), checksum(h, 0); got != want || got != naiveChecksum(h, 0) {
			t.Fatalf("header %x: 20-byte path %#04x, loop %#04x, naive %#04x", h, got, want, naiveChecksum(h, 0))
		}
	}
	r := rand.New(rand.NewSource(20))
	h := make([]byte, IPv4HeaderLen)
	for i := 0; i < 100000; i++ {
		r.Read(h)
		check(h)
	}
	check(bytes.Repeat([]byte{0xff}, IPv4HeaderLen))
	check(make([]byte, IPv4HeaderLen))
	for _, words := range [][]uint16{{0xffff}, {0xfffe, 1}, {0xffff, 0xffff}, {0x8000, 0x7fff, 0xffff, 0xffff}} {
		clear(h)
		for i, w := range words {
			binary.BigEndian.PutUint16(h[2*i:], w)
		}
		check(h)
	}
}

// TestSinglePassEncodeMatchesNestedMarshal: building a frame layer after
// layer in one buffer gives the bytes of the nested Marshal calls.
func TestSinglePassEncodeMatchesNestedMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	buf := make([]byte, 0, 1600)
	for i := 0; i < 2000; i++ {
		payload := make([]byte, r.Intn(1473))
		r.Read(payload)
		f := &Frame{Dst: LocalMAC(r.Uint64()), Src: LocalMAC(r.Uint64()), Type: EtherTypeIPv4}
		if i%4 == 0 {
			f.VLANID = uint16(1 + r.Intn(4094))
		}
		ip := &IPv4{TOS: uint8(r.Intn(256)), ID: uint16(r.Intn(1 << 16)), TTL: uint8(r.Intn(256)), Proto: ProtoUDP,
			Src: ipA, Dst: ipB}
		u := &UDP{SrcPort: uint16(r.Intn(1 << 16)), DstPort: uint16(r.Intn(1 << 16)), Payload: payload}

		got := f.AppendHeader(buf[:0])
		got = ip.AppendHeader(got, UDPHeaderLen+len(payload))
		got = u.AppendTo(got, ip.Src, ip.Dst)

		ip.Payload = u.Marshal(ip.Src, ip.Dst)
		f.Payload = ip.Marshal()
		if want := f.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("payload %d B, vlan %d: single pass\n%x\nnested\n%x", len(payload), f.VLANID, got, want)
		}
	}
}

var checksumSink uint16

func BenchmarkChecksum1480(b *testing.B) {
	buf := make([]byte, 1480)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		checksumSink = checksum(buf, 0x1234)
	}
}
