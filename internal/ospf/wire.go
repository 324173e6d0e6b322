// Package ospf implements the OSPFv2 routing protocol the paper's virtual
// machines run (the ospfd of the Quagga routing control platform, §2.1 "we
// ... use OSPF as a routing protocol"). The implementation speaks real OSPF
// wire formats — Hello packets and Link State Updates carrying Router-LSAs
// with RFC 905 Fletcher checksums — over point-to-point interfaces, runs the
// neighbor state machine (Down → Init → Full with hello/dead timers), floods
// and ages LSAs, and computes routes with Dijkstra SPF into the VM's RIB.
//
// Simplifications relative to RFC 2328, documented for reviewers: only
// point-to-point interfaces (RouteFlow's virtual links are p2p, so no
// DR/BDR election is ever needed); adjacencies skip the DBD/LSR negotiation
// and instead exchange full LSDBs on reaching Full (equivalent outcome on
// p2p links); a single area (0.0.0.0); Router-LSAs only (sufficient to
// route every link subnet in a p2p mesh). Timer semantics — HelloInterval,
// RouterDeadInterval, SPF delay — follow the RFC: they are the periodic and
// liveness bounds. Forming an adjacency does not wait for them: an interface
// coming up sends its hello at once, and a hello that changes a neighbor's
// state is answered at once, so a link is Full one round trip after both
// ends are up.
package ospf

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"routeflow/internal/pkt"
)

// Protocol constants.
const (
	ProtoVersion = 2
	headerLen    = 24

	typeHello    = 1
	typeLSUpdate = 4

	// AllSPFRouters is the OSPF multicast group.
	AllSPFRouters = "224.0.0.5"

	// MaxAge is the LSA expiry age in seconds.
	MaxAge = 3600
	// InitialSeq is the first LSA sequence number (RFC 2328 §12.1.6).
	InitialSeq = 0x80000001
)

// header is the common 24-byte OSPF packet header (area 0, null auth).
type header struct {
	Type     uint8
	RouterID uint32
}

func u32(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func addr(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

func marshalPacket(h header, body []byte) []byte {
	b := make([]byte, headerLen+len(body))
	b[0] = ProtoVersion
	b[1] = h.Type
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	binary.BigEndian.PutUint32(b[4:], h.RouterID)
	// area ID 0.0.0.0, checksum 0 (filled below), autype 0, auth 0.
	copy(b[headerLen:], body)
	binary.BigEndian.PutUint16(b[12:], pkt.Checksum(b))
	return b
}

func parsePacket(b []byte) (header, []byte, error) {
	if len(b) < headerLen {
		return header{}, nil, fmt.Errorf("ospf: packet of %d bytes", len(b))
	}
	if b[0] != ProtoVersion {
		return header{}, nil, fmt.Errorf("ospf: version %d", b[0])
	}
	length := int(binary.BigEndian.Uint16(b[2:]))
	if length < headerLen || length > len(b) {
		return header{}, nil, fmt.Errorf("ospf: length %d of %d", length, len(b))
	}
	if pkt.Checksum(b[:length]) != 0 {
		return header{}, nil, fmt.Errorf("ospf: header checksum mismatch")
	}
	h := header{Type: b[1], RouterID: binary.BigEndian.Uint32(b[4:])}
	return h, b[headerLen:length], nil
}

// hello is the OSPF Hello body for p2p interfaces.
type hello struct {
	NetMask       uint32
	HelloInterval uint16
	DeadInterval  uint32
	Neighbors     []uint32 // router IDs heard on this interface
}

func (h *hello) marshal() []byte {
	b := make([]byte, 20+4*len(h.Neighbors))
	binary.BigEndian.PutUint32(b[0:], h.NetMask)
	binary.BigEndian.PutUint16(b[4:], h.HelloInterval)
	b[6] = 0x02 // options: E-bit
	b[7] = 1    // router priority
	binary.BigEndian.PutUint32(b[8:], h.DeadInterval)
	// DR and BDR stay 0.0.0.0 on p2p links.
	for i, n := range h.Neighbors {
		binary.BigEndian.PutUint32(b[20+4*i:], n)
	}
	return b
}

func parseHello(b []byte) (*hello, error) {
	if len(b) < 20 {
		return nil, fmt.Errorf("ospf: hello of %d bytes", len(b))
	}
	h := &hello{
		NetMask:       binary.BigEndian.Uint32(b[0:]),
		HelloInterval: binary.BigEndian.Uint16(b[4:]),
		DeadInterval:  binary.BigEndian.Uint32(b[8:]),
	}
	for off := 20; off+4 <= len(b); off += 4 {
		h.Neighbors = append(h.Neighbors, binary.BigEndian.Uint32(b[off:]))
	}
	return h, nil
}

// Router-LSA link types (RFC 2328 §A.4.2).
const (
	linkP2P  = 1
	linkStub = 3
)

// rlaLink is one link advertised in a Router-LSA.
type rlaLink struct {
	ID     uint32 // p2p: neighbor router ID; stub: network address
	Data   uint32 // p2p: local interface address; stub: network mask
	Type   uint8
	Metric uint16
}

// lsa is a Router-LSA (the only type this implementation originates).
type lsa struct {
	Age       uint16
	AdvRouter uint32 // == Link State ID for Router-LSAs
	Seq       uint32
	Links     []rlaLink
}

const lsaHeaderLen = 20

// marshal encodes the LSA with its Fletcher checksum.
func (l *lsa) marshal() []byte {
	b := make([]byte, lsaHeaderLen+4+12*len(l.Links))
	binary.BigEndian.PutUint16(b[0:], l.Age)
	b[2] = 0x02                                    // options
	b[3] = 1                                       // type: Router-LSA
	binary.BigEndian.PutUint32(b[4:], l.AdvRouter) // link state ID
	binary.BigEndian.PutUint32(b[8:], l.AdvRouter) // advertising router
	binary.BigEndian.PutUint32(b[12:], l.Seq)
	binary.BigEndian.PutUint16(b[18:], uint16(len(b)))
	// body
	binary.BigEndian.PutUint16(b[22:], uint16(len(l.Links)))
	for i, ln := range l.Links {
		off := lsaHeaderLen + 4 + 12*i
		binary.BigEndian.PutUint32(b[off:], ln.ID)
		binary.BigEndian.PutUint32(b[off+4:], ln.Data)
		b[off+8] = ln.Type
		binary.BigEndian.PutUint16(b[off+10:], ln.Metric)
	}
	binary.BigEndian.PutUint16(b[16:], fletcher16(b[2:], 14))
	return b
}

func parseLSA(b []byte) (*lsa, int, error) {
	if len(b) < lsaHeaderLen {
		return nil, 0, fmt.Errorf("ospf: lsa header of %d bytes", len(b))
	}
	length := int(binary.BigEndian.Uint16(b[18:]))
	if length < lsaHeaderLen || length > len(b) {
		return nil, 0, fmt.Errorf("ospf: lsa length %d of %d", length, len(b))
	}
	if b[3] != 1 {
		// Unknown LSA types are skipped by the caller.
		return nil, length, nil
	}
	if got := fletcher16(b[2:length], 14); got != binary.BigEndian.Uint16(b[16:]) {
		return nil, 0, fmt.Errorf("ospf: lsa fletcher checksum mismatch")
	}
	l := &lsa{
		Age:       binary.BigEndian.Uint16(b[0:]),
		AdvRouter: binary.BigEndian.Uint32(b[8:]),
		Seq:       binary.BigEndian.Uint32(b[12:]),
	}
	if length < lsaHeaderLen+4 {
		return nil, 0, fmt.Errorf("ospf: router lsa without body")
	}
	n := int(binary.BigEndian.Uint16(b[22:]))
	if lsaHeaderLen+4+12*n > length {
		return nil, 0, fmt.Errorf("ospf: router lsa link count %d overflows", n)
	}
	for i := 0; i < n; i++ {
		off := lsaHeaderLen + 4 + 12*i
		l.Links = append(l.Links, rlaLink{
			ID:     binary.BigEndian.Uint32(b[off:]),
			Data:   binary.BigEndian.Uint32(b[off+4:]),
			Type:   b[off+8],
			Metric: binary.BigEndian.Uint16(b[off+10:]),
		})
	}
	return l, length, nil
}

// marshalLSUpdate packs LSAs into a Link State Update body.
func marshalLSUpdate(lsas []*lsa) []byte {
	var body []byte
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(len(lsas)))
	body = append(body, cnt[:]...)
	for _, l := range lsas {
		body = append(body, l.marshal()...)
	}
	return body
}

func parseLSUpdate(b []byte) ([]*lsa, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("ospf: ls update of %d bytes", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	var out []*lsa
	for i := 0; i < n; i++ {
		l, consumed, err := parseLSA(b)
		if err != nil {
			return nil, err
		}
		if l != nil {
			out = append(out, l)
		}
		b = b[consumed:]
	}
	return out, nil
}

// fletcher16 computes the RFC 905 Annex B checksum over data with the
// checksum field (2 bytes at checkOff within data) treated as zero, and
// returns the value to place there so the whole block verifies.
func fletcher16(data []byte, checkOff int) uint16 {
	var c0, c1 int
	for i, v := range data {
		x := int(v)
		if i == checkOff || i == checkOff+1 {
			x = 0
		}
		c0 = (c0 + x) % 255
		c1 = (c1 + c0) % 255
	}
	// Compute the check bytes (X, Y) per RFC 905.
	x := ((len(data)-checkOff-1)*c0 - c1) % 255
	if x <= 0 {
		x += 255
	}
	y := 510 - c0 - x
	if y > 255 {
		y -= 255
	}
	return uint16(x)<<8 | uint16(y)
}
