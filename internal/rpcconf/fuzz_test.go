package rpcconf

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to readFrame as a Message and as an
// ack. Neither panics, a header announcing more than maxFrame bytes is
// rejected, and a Message that decodes survives writeFrame and readFrame
// unchanged.
func FuzzReadFrame(f *testing.F) {
	a := netip.MustParsePrefix("172.16.0.1/30")
	b := netip.MustParsePrefix("172.16.0.2/30")
	for _, v := range []any{
		SwitchUpAS(1, 4, 65001),
		LinkUpAS(1, 2, 3, 4, a, b, 65001, 65002),
		HostUp(7, 3, netip.MustParsePrefix("10.1.0.1/24")),
		Probe(),
		ack{Seq: 3, Epoch: 9, Err: "vm creation failed"},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0x00, 0x20, 0x00, 0x00})           // 2 MiB announced
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, '{', '}'}) // body cut short
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, '[', ']'}) // not an object
	f.Fuzz(func(t *testing.T, data []byte) {
		oversized := len(data) >= 4 && binary.BigEndian.Uint32(data) > maxFrame
		var a ack
		if err := readFrame(bytes.NewReader(data), &a); err == nil && oversized {
			t.Fatalf("ack frame over %d bytes accepted", maxFrame)
		}
		var m Message
		err := readFrame(bytes.NewReader(data), &m)
		if oversized && err == nil {
			t.Fatalf("message frame over %d bytes accepted", maxFrame)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, &m); err != nil {
			t.Fatalf("re-encoding %+v: %v", m, err)
		}
		var back Message
		if err := readFrame(&buf, &back); err != nil {
			t.Fatalf("decoding re-encoded %+v: %v", m, err)
		}
		if back != m {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", back, m)
		}
	})
}
