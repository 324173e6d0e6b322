package main

import (
	"encoding/binary"
	"math/rand"
	"net/netip"

	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// Every generated datagram starts with this header, so the receiver can
// check what it got without knowing what was sent when:
//
//	[0:2]   flow id
//	[2:6]   sequence number within the flow, from 0
//	[6:14]  stamp: nanoseconds since the process started at which the
//	        datagram was sent (closed loop) or was due (open loop)
//	[14]    phase the datagram belongs to
//
// and continues with the flow's byte pattern. Prebuilt raw frames, whose UDP
// checksum is computed once, carry the 16-byte header (one pad byte) followed
// by its bitwise complement: a word and its complement always add up to
// 0xffff, so the header can be rewritten per send with the checksum intact.
const (
	hdrLen    = 15
	rawHdrLen = 32 // header, pad byte, complement of both
)

func putHeader(b []byte, flow int, seq uint32, stamp int64, phase uint8) {
	binary.BigEndian.PutUint16(b[0:], uint16(flow))
	binary.BigEndian.PutUint32(b[2:], seq)
	binary.BigEndian.PutUint64(b[6:], uint64(stamp))
	b[14] = phase
}

// putRawHeader is putHeader for a prebuilt frame's payload.
func putRawHeader(b []byte, flow int, seq uint32, stamp int64, phase uint8) {
	putHeader(b, flow, seq, stamp, phase)
	b[15] = 0
	for i := 0; i < 16; i++ {
		b[16+i] = ^b[i]
	}
}

func parseHeader(b []byte) (flow int, seq uint32, stamp int64, phase uint8) {
	return int(binary.BigEndian.Uint16(b[0:])), binary.BigEndian.Uint32(b[2:]),
		int64(binary.BigEndian.Uint64(b[6:])), b[14]
}

// rngFor derives an independent generator per input kind from the run seed,
// so adding a draw to one kind does not shift the others.
func rngFor(seed int64, kind string) *rand.Rand {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for _, c := range []byte(kind) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// udpFlows is the microflow set a host-to-host workload sends: one distinct
// source port and one payload pattern per flow.
type udpFlows struct {
	srcPort []uint16
	pattern [][]byte // payload bytes after the header
	dstPort uint16
}

// genUDPFlows draws n flows with payloads of payloadLen bytes.
func genUDPFlows(seed int64, n, payloadLen int) *udpFlows {
	r := rngFor(seed, "udp-flows")
	f := &udpFlows{dstPort: 7000 + uint16(r.Intn(1000))}
	for _, p := range r.Perm(20000)[:n] {
		f.srcPort = append(f.srcPort, 20000+uint16(p))
		pat := make([]byte, payloadLen-hdrLen)
		r.Read(pat)
		f.pattern = append(f.pattern, pat)
	}
	return f
}

// Sizes of the churn-4k workload.
const (
	churnLive     = 256  // live /24 routes the traffic matches
	churnRules    = 4096 // rules per switch, live ones included
	churnFlows    = 8192 // microflows: 8x one 1024-slot cache shard
	churnFrameLen = 512
	churnSchedule = 1 << 16
)

// rf's priority bands (internal/rf): prefix routes at 100+bits, traffic-
// engineering pins at 400, learned hosts at 500.
const (
	prioRoute24 = 124
	prioLink30  = 130
	prioPin     = 400
	prioHost    = 500
)

// churnInputs is everything the churn-4k rig is fed.
type churnInputs struct {
	rules    [2][]*openflow.FlowMod // per switch, in install order
	decoys   [2][]*openflow.FlowMod // per switch: extra /30 routes the churn adds and deletes
	dlDst    [2][]pkt.MAC           // per switch, per live prefix: the rewrite its rule applies
	frames   [][]byte               // one prebuilt frame per flow
	prefixOf []int                  // live prefix index of each flow
	schedule []uint16               // Zipf(1.2) flow picks, cycled
	ops      []churnOp              // flow-mod sequence, cycled
}

// churnOp is one step of the flow-mod churn: add or delete-strict decoy
// number idx on switch sw.
type churnOp struct {
	sw, idx int
	del     bool
}

func ipv4Match() openflow.Match {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType
	m.DlType = uint16(pkt.EtherTypeIPv4)
	return m
}

// rfRule builds a flow-mod of the shape rf installs: match on IPv4
// destination (and source, for pins), rewrite both MACs, output.
func rfRule(src, dst netip.Prefix, prio uint16, dlSrc, dlDst pkt.MAC, out uint16) *openflow.FlowMod {
	m := ipv4Match()
	m.SetNwDstPrefix(dst)
	if src.IsValid() {
		m.SetNwSrcPrefix(src)
	}
	return &openflow.FlowMod{
		Match: m, Command: openflow.FlowModAdd, Priority: prio,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{
			&openflow.ActionSetDlSrc{Addr: dlSrc},
			&openflow.ActionSetDlDst{Addr: dlDst},
			&openflow.ActionOutput{Port: out},
		},
	}
}

func addr4(a, b, c, d int) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a), byte(b), byte(c), byte(d)})
}

// livePrefix is the i-th /24 the churn traffic is addressed to.
func livePrefix(i int) netip.Prefix { return netip.PrefixFrom(addr4(10, 200, i, 0), 24) }

// genChurn draws the churn-4k inputs: rules rules per switch, of which live
// are the /24 routes the traffic matches and the rest decoys spread over
// rf's other priority bands (none of them covers a generated frame), flows
// microflows of frameLen-byte frames, the popularity schedule and the
// flow-mod sequence.
func genChurn(seed int64, rules, live, flows, frameLen int) *churnInputs {
	in := &churnInputs{}
	r := rngFor(seed, "churn-rules")
	for sw := 0; sw < 2; sw++ {
		self := pkt.LocalMAC(uint64(0xc0+sw)<<16 | 2)
		var set []*openflow.FlowMod
		for i := 0; i < live; i++ {
			mac := pkt.LocalMAC(uint64(0xd0+sw)<<24 | uint64(r.Intn(1<<16))<<8 | uint64(i))
			in.dlDst[sw] = append(in.dlDst[sw], mac)
			set = append(set, rfRule(netip.Prefix{}, livePrefix(i), prioRoute24, self, mac, 2))
		}
		for i := 0; len(set) < rules; i++ {
			mac := pkt.LocalMAC(uint64(0xe0+sw)<<24 | uint64(i))
			hi, lo := i/3>>8, i/3&0xff
			switch i % 3 {
			case 0: // inter-switch /30
				set = append(set, rfRule(netip.Prefix{}, netip.PrefixFrom(addr4(172, 16+hi, lo, 4*r.Intn(64)), 30), prioLink30, self, mac, 2))
			case 1: // (src,dst) pin
				set = append(set, rfRule(netip.PrefixFrom(addr4(10, 210+hi, lo, 0), 24),
					netip.PrefixFrom(addr4(10, 230+hi, lo, 0), 24), prioPin, self, mac, 2))
			case 2: // learned host
				set = append(set, rfRule(netip.Prefix{}, netip.PrefixFrom(addr4(10, 250, hi, lo), 32), prioHost, self, mac, 2))
			}
		}
		r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		in.rules[sw] = set
		for i := 0; i < 64; i++ {
			in.decoys[sw] = append(in.decoys[sw], rfRule(netip.Prefix{},
				netip.PrefixFrom(addr4(172, 30, i, 4*r.Intn(64)), 30), prioLink30, self, pkt.LocalMAC(uint64(0xf0+sw)<<24|uint64(i)), 2))
		}
	}

	r = rngFor(seed, "churn-flows")
	srcMAC, gwMAC := pkt.LocalMAC(0xa1), pkt.LocalMAC(0xa2)
	for f := 0; f < flows; f++ {
		p := r.Intn(live)
		src, dst := addr4(10, 100, r.Intn(256), 1+r.Intn(250)), addr4(10, 200, p, 1+r.Intn(250))
		payload := make([]byte, frameLen-pkt.EthernetHeaderLen-pkt.IPv4HeaderLen-pkt.UDPHeaderLen)
		if len(payload) >= rawHdrLen {
			r.Read(payload[rawHdrLen:])
			putRawHeader(payload, f, 0, 0, 0)
		} else { // too short to carry the header: frames for the counting rigs
			r.Read(payload)
		}
		u := &pkt.UDP{SrcPort: 1024 + uint16(r.Intn(60000)), DstPort: 1024 + uint16(r.Intn(60000)), Payload: payload}
		ip := &pkt.IPv4{ID: uint16(f), TTL: 64, Proto: pkt.ProtoUDP, Src: src, Dst: dst, Payload: u.Marshal(src, dst)}
		fr := &pkt.Frame{Dst: gwMAC, Src: srcMAC, Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
		in.frames = append(in.frames, fr.Marshal())
		in.prefixOf = append(in.prefixOf, p)
	}

	r = rngFor(seed, "churn-schedule")
	z := rand.NewZipf(r, 1.2, 1, uint64(flows-1))
	perm := r.Perm(flows) // which flow holds which popularity rank
	in.schedule = make([]uint16, churnSchedule)
	for i := range in.schedule {
		in.schedule[i] = uint16(perm[z.Uint64()])
	}

	// Decoys are added and deleted again in pairs, one per switch, so each
	// table stays within a rule of its starting size.
	r = rngFor(seed, "churn-ops")
	order := r.Perm(len(in.decoys[0]))
	for i := 0; i+1 < len(order); i += 2 {
		a, b := order[i], order[i+1]
		in.ops = append(in.ops, churnOp{sw: 0, idx: a}, churnOp{sw: 1, idx: b},
			churnOp{sw: 0, idx: a, del: true}, churnOp{sw: 1, idx: b, del: true})
	}
	return in
}

// rawPayload returns the UDP payload of a prebuilt untagged IPv4/UDP frame.
func rawPayload(frame []byte) []byte {
	return frame[pkt.EthernetHeaderLen+pkt.IPv4HeaderLen+pkt.UDPHeaderLen:]
}
