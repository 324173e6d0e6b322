package ospf

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParsePacket throws arbitrary bytes at the OSPF decoder, the parser
// every punted protocol-89 payload reaches. The invariants: parsePacket,
// parseHello and parseLSUpdate never panic, and whatever they accept
// survives marshal∘parse unchanged (the canonical form is a fixed point:
// unknown LSA types and a hello's trailing partial word are dropped once,
// never again).
func FuzzParsePacket(f *testing.F) {
	// Seed corpus: the packets the wire tests build, well-formed and not.
	hl := &hello{NetMask: 0xfffffffc, HelloInterval: 10, DeadInterval: 40,
		Neighbors: []uint32{0x01010101, 0x02020202}}
	f.Add(marshalPacket(header{Type: typeHello, RouterID: 0x0a0a0a0a}, hl.marshal()))
	f.Add(marshalPacket(header{Type: typeHello, RouterID: 1}, (&hello{}).marshal()))
	f.Add(marshalPacket(header{Type: typeHello, RouterID: 1}, nil)) // hello without a body
	lsas := []*lsa{
		{AdvRouter: 0x0a000001, Seq: InitialSeq, Age: 7, Links: []rlaLink{
			{ID: 0x0a000002, Data: 0xac100001, Type: linkP2P, Metric: 10},
			{ID: 0xac100000, Data: 0xfffffffc, Type: linkStub, Metric: 10}}},
		{AdvRouter: 2, Seq: InitialSeq + 3},
	}
	update := marshalPacket(header{Type: typeLSUpdate, RouterID: 0x0a000001}, marshalLSUpdate(lsas))
	f.Add(update)
	corrupt := append([]byte(nil), update...)
	corrupt[len(corrupt)-1] ^= 0x01 // breaks the last LSA's Fletcher checksum
	f.Add(corrupt)
	unknown := lsas[1].marshal()
	unknown[3] = 5 // an LSA type we skip
	f.Add(marshalPacket(header{Type: typeLSUpdate, RouterID: 3}, append([]byte{0, 0, 0, 1}, unknown...)))
	f.Add(marshalPacket(header{Type: typeLSUpdate, RouterID: 3}, []byte{0xff, 0xff, 0xff, 0xff})) // count without LSAs
	f.Add([]byte{})
	f.Add([]byte{2, 1})
	wrongVersion := marshalPacket(header{Type: typeHello, RouterID: 1}, nil)
	wrongVersion[0] = 3
	f.Add(wrongVersion)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := parsePacket(data)
		if err != nil {
			return // rejected is fine; panicking is the bug
		}
		var canon []byte
		switch h.Type {
		case typeHello:
			got, err := parseHello(body)
			if err != nil {
				return
			}
			canon = got.marshal()
			again, err := parseHello(canon)
			if err != nil || !reflect.DeepEqual(got, again) {
				t.Fatalf("hello changed across marshal∘parse: %+v vs %+v (%v)", got, again, err)
			}
		case typeLSUpdate:
			got, err := parseLSUpdate(body)
			if err != nil {
				return
			}
			canon = marshalLSUpdate(got)
			again, err := parseLSUpdate(canon)
			if err != nil || !reflect.DeepEqual(got, again) {
				t.Fatalf("ls update changed across marshal∘parse: %+v vs %+v (%v)", got, again, err)
			}
		default:
			canon = body
		}
		h2, body2, err := parsePacket(marshalPacket(h, canon))
		if err != nil || h2 != h || !bytes.Equal(body2, canon) {
			t.Fatalf("packet changed across marshal∘parse: %+v/%x vs %+v/%x (%v)", h, canon, h2, body2, err)
		}
	})
}
