package bgp

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzBGPMessage throws arbitrary bytes at the wire parsers. The invariants:
// ParseMessage and the three body parsers never panic, on any bytes; and for
// a message that parses, re-encoding is a fixed point: encode(parse(encode(
// parse(b)))) equals encode(parse(b)). The first encoding may differ from b —
// unknown attributes, optional OPEN parameters and trailing bytes are
// dropped, MED and ORIGIN always written — but the canonical form is stable.
func FuzzBGPMessage(f *testing.F) {
	longPath := make([]uint16, 300)
	for i := range longPath {
		longPath[i] = uint16(i + 1)
	}
	for _, seed := range [][]byte{
		MarshalOpen(Open{ASN: 65001, HoldTime: 180, RouterID: 0x0aff0001}),
		MarshalKeepalive(),
		MarshalNotification(Notification{Code: NotifHoldExpired}),
		MarshalUpdate(Update{
			Withdrawn: []netip.Prefix{pfx("10.3.0.0/24"), pfx("10.4.0.0/16")},
			Attrs: PathAttrs{Origin: OriginIncomplete, ASPath: []uint16{64512, 64513},
				NextHop: ip("172.16.0.1"), MED: 20},
			NLRI: []netip.Prefix{pfx("10.1.0.0/24"), pfx("10.2.128.0/17")},
		}),
		MarshalUpdate(Update{
			Attrs: PathAttrs{Origin: OriginIGP, NextHop: ip("10.255.0.1"), LocalPref: 200, HasLP: true},
			NLRI:  []netip.Prefix{pfx("10.9.0.0/24")},
		}),
		MarshalUpdate(Update{Withdrawn: []netip.Prefix{pfx("10.1.0.0/24")}}),
		MarshalUpdate(Update{
			Attrs: PathAttrs{Origin: OriginIGP, ASPath: longPath, NextHop: ip("172.16.0.1")},
			NLRI:  []netip.Prefix{pfx("10.1.0.0/24")},
		}),
	} {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(MarshalKeepalive()[:headerLen-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := ParseMessage(data)
		// The body parsers must survive any bytes, not only a body of their
		// own type.
		_, _ = ParseOpen(data)
		_, _ = ParseUpdate(data)
		_, _ = ParseNotification(data)
		if err != nil {
			return
		}
		canon, ok := canonical(typ, body)
		if !ok {
			return
		}
		if len(canon) > maxMessage {
			// Writing the attributes the input left out can push a message
			// at the 4096-byte limit over it; the parser refuses that, by
			// design, so there is no second round to compare.
			return
		}
		typ2, body2, err := ParseMessage(canon)
		if err != nil || typ2 != typ {
			t.Fatalf("canonical form of a type-%d message does not parse: type %d, %v\n%x", typ, typ2, err, canon)
		}
		again, ok := canonical(typ2, body2)
		if !ok || !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not stable:\n first %x\nsecond %x", canon, again)
		}
	})
}

// canonical parses one message body of type typ and encodes it again; ok is
// false when the body does not parse or the type is unknown.
func canonical(typ uint8, body []byte) ([]byte, bool) {
	var out []byte
	var err error
	switch typ {
	case MsgOpen:
		var o Open
		if o, err = ParseOpen(body); err == nil {
			out = MarshalOpen(o)
		}
	case MsgUpdate:
		var u Update
		if u, err = ParseUpdate(body); err == nil {
			out = MarshalUpdate(u)
		}
	case MsgNotification:
		var n Notification
		if n, err = ParseNotification(body); err == nil {
			out = MarshalNotification(n)
		}
	case MsgKeepalive:
		out = MarshalKeepalive()
	}
	return out, out != nil
}
