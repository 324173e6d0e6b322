package main

import (
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"routeflow"
	"routeflow/internal/ctlkit"
	"routeflow/internal/intent"
	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/ospf"
	"routeflow/internal/pkt"
	"routeflow/internal/rf"
	"routeflow/internal/rib"
	"routeflow/internal/rpcconf"
	"routeflow/internal/vnet"
)

// rigResult is what a per-layer rig reports: how much work it put through
// the layer, how long the layer was busy with it, what it allocated, how
// many operations failed and, where a layer can waste work, how many were
// attempted for the count that were useful.
type rigResult struct {
	count     int
	busy      time.Duration
	allocs    uint64
	failures  int
	attempted int
}

func (g rigResult) ns() float64 { return float64(g.busy.Nanoseconds()) / float64(max(g.count, 1)) }
func (g rigResult) us() float64 { return g.ns() / 1e3 }
func (g rigResult) allocsPerOp() float64 {
	return float64(g.allocs) / float64(max(g.count, 1))
}

// tracedCalls bounds the calls of one rig that get a span each; the rest of
// a rig's calls are timed together.
const tracedCalls = 500

// calls times n calls of op, a call into one layer's public function, and
// counts what they allocate. It then repeats up to tracedCalls of them with a
// span around each, and adds both passes to the run's tracing-overhead
// account. op reports whether the call succeeded.
func (r *run) calls(name string, n int, op func(i int) bool) rigResult {
	res := rigResult{count: n, attempted: n}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, start := ms.Mallocs, time.Now()
	for i := 0; i < n; i++ {
		if !op(i) {
			res.failures++
		}
	}
	res.busy = time.Since(start)
	runtime.ReadMemStats(&ms)
	res.allocs = ms.Mallocs - mallocs0

	// The same few calls without and with a span around each: the
	// difference is what tracing costs.
	m := min(n, tracedCalls)
	start = time.Now()
	for i := 0; i < m; i++ {
		op(i)
	}
	r.untracedBusy += time.Since(start)
	parent := r.rec.begin("rig/"+name, r.rigSpan, 0)
	start = time.Now()
	for i := 0; i < m; i++ {
		sp := r.rec.begin(name, parent, 0)
		op(i)
		r.rec.end(sp)
	}
	r.tracedBusy += time.Since(start)
	r.rec.end(parent)
	r.rigReport(name, res)
	return res
}

// rigReport prints one rig's accounts for people.
func (r *run) rigReport(name string, g rigResult) {
	fmt.Fprintf(os.Stderr, "  rig %-34s work %8d  busy %12v  %10.1f ns/op  %6.2f allocs/op  failed %d  useful/attempted %d/%d\n",
		name, g.count, g.busy.Round(time.Microsecond), g.ns(), g.allocsPerOp(), g.failures, g.count-g.failures, g.attempted)
}

// udpFrame builds the Ethernet frame a host would put on the wire for a UDP
// datagram with a payload of payloadLen bytes.
func udpFrame(dst netip.Addr, payloadLen int) []byte {
	src := addr4(10, 1, 0, 100)
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	u := &pkt.UDP{SrcPort: 20001, DstPort: 7001, Payload: payload}
	ip := &pkt.IPv4{ID: 1, TTL: 64, Proto: pkt.ProtoUDP, Src: src, Dst: dst, Payload: u.Marshal(src, dst)}
	f := &pkt.Frame{Dst: pkt.LocalMAC(0xb2), Src: pkt.LocalMAC(0xb1), Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
	return f.Marshal()
}

const (
	small = 18   // payload of a 64 B frame
	large = 1472 // payload of a 1514 B frame
)

// rigs runs every per-layer rig and fills the run's per-layer metrics.
// payloadLen is the workload's own datagram size; live, when the workload has
// one, is its running deployment, whose flow table the ofswitch hit rigs
// replay.
func (r *run) rigs(payloadLen int, live *site) {
	r.rigSpan = r.rec.begin("rigs", 0, 0)
	defer r.rec.end(r.rigSpan)
	L := r.layer
	frames := map[int][]byte{small: udpFrame(addr4(10, 8, 0, 100), small), large: udpFrame(addr4(10, 8, 0, 100), large)}

	// pkt: what a host stack does to every datagram it receives and sends.
	decode := func(frame []byte) func(int) bool {
		return func(int) bool {
			var f pkt.Frame
			var ip pkt.IPv4
			var u pkt.UDP
			return pkt.DecodeFrameInto(&f, frame) == nil && pkt.DecodeIPv4Into(&ip, f.Payload) == nil &&
				pkt.DecodeUDPInto(&u, ip.Payload, ip.Src, ip.Dst) == nil
		}
	}
	L["pkt.decode_ns_64B"] = r.calls("pkt.decode/64B", 200000, decode(frames[small])).ns()
	L["pkt.decode_ns_1500B"] = r.calls("pkt.decode/1500B", 50000, decode(frames[large])).ns()
	payload := make([]byte, large)
	src, dst := addr4(10, 1, 0, 100), addr4(10, 8, 0, 100)
	enc := r.calls("pkt.encode/1500B", 50000, func(i int) bool {
		u := &pkt.UDP{SrcPort: 20001, DstPort: 7001, Payload: payload}
		ip := &pkt.IPv4{ID: uint16(i), TTL: 64, Proto: pkt.ProtoUDP, Src: src, Dst: dst, Payload: u.Marshal(src, dst)}
		f := &pkt.Frame{Dst: pkt.LocalMAC(2), Src: pkt.LocalMAC(1), Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
		return len(f.Marshal()) == large+42
	})
	L["pkt.encode_ns_1500B"], L["pkt.encode_allocs"] = enc.ns(), enc.allocsPerOp()

	// openflow: key extraction per hop, flow-mod codec per configuration step.
	extract := func(frame []byte) func(int) bool {
		return func(int) bool {
			k, err := openflow.ExtractKey(1, frame)
			return err == nil && k.TpDst == 7001
		}
	}
	L["openflow.extract_key_ns_64B"] = r.calls("openflow.ExtractKey/64B", 200000, extract(frames[small])).ns()
	L["openflow.extract_key_ns_1500B"] = r.calls("openflow.ExtractKey/1500B", 50000, extract(frames[large])).ns()
	fm := probeRule()
	buf := fm.AppendTo(nil)
	L["openflow.flowmod_encode_ns"] = r.calls("openflow.FlowMod.AppendTo", 200000, func(int) bool {
		buf = fm.AppendTo(buf[:0])
		return len(buf) > 0
	}).ns()
	dec := r.calls("openflow.Unmarshal/FlowMod", 100000, func(int) bool {
		m, err := openflow.Unmarshal(buf)
		return err == nil && m.MsgType() == openflow.TypeFlowMod
	})
	L["openflow.flowmod_decode_ns"], L["openflow.flowmod_decode_allocs"] = dec.ns(), dec.allocsPerOp()

	// netemu: the cable hand-off, and the host stack on either end of it.
	cable := map[int]float64{}
	var drops uint64
	for _, size := range []int{small, large} {
		g, d := cableRig(frames[size], 200000)
		r.pipelineReport(fmt.Sprintf("netemu.cable/%dB", size+46), g)
		cable[size] = g.ns()
		drops += d
	}
	L["netemu.cable_ns_per_frame_64B"], L["netemu.cable_ns_per_frame_1500B"] = cable[small], cable[large]
	L["netemu.cable_drops"] = float64(drops)
	// cableAt prices a cable hand-off at any frame size between the two
	// measured ones.
	cableAt := func(payloadLen int) float64 {
		return cable[small] + (cable[large]-cable[small])*float64(payloadLen-small)/float64(large-small)
	}
	hostSend, hostRecv := map[int]float64{}, map[int]float64{}
	for _, size := range []int{small, large} {
		send, recv, err := hostRig(size, 100000)
		if err != nil {
			r.problem("host rig: %v", err)
			continue
		}
		r.pipelineReport(fmt.Sprintf("netemu.Host.SendUDP/%dB", size+46), send)
		r.pipelineReport(fmt.Sprintf("netemu.Host.receive/%dB", size+46), recv)
		hostSend[size], hostRecv[size] = send.ns()-cable[size], recv.ns()-cable[size]
		if size == large {
			L["netemu.host_send_allocs"] = send.allocsPerOp()
		}
	}
	L["netemu.host_send_ns_64B"], L["netemu.host_send_ns_1500B"] = hostSend[small], hostSend[large]
	L["netemu.host_recv_ns_1500B"] = hostRecv[large]

	// ofswitch: one hop on a cache hit (the deployment's own rules, 64
	// flows) and on a miss (8192 flows over 256 and 4096 rules).
	hop := map[int]float64{}
	for _, size := range []int{small, large} {
		g, err := hopRig(hitInputs(r.seed, size, live), 300000)
		if err != nil {
			r.problem("hop rig: %v", err)
			continue
		}
		r.pipelineReport(fmt.Sprintf("ofswitch.hop/hit/%dB", size+46), g)
		hop[size] = (g.ns() - 3*cable[size]) / 2
	}
	L["ofswitch.hop_ns_hit_64B"], L["ofswitch.hop_ns_hit_1500B"] = hop[small], hop[large]
	churnPayload := churnFrameLen - 42
	for _, rules := range []int{churnLive, churnRules} {
		g, err := hopRig(genChurn(r.seed, rules, churnLive, churnFlows, churnFrameLen), 240000*churnLive/rules)
		if err != nil {
			r.problem("hop rig: %v", err)
			continue
		}
		r.pipelineReport(fmt.Sprintf("ofswitch.hop/miss/%dr", rules), g)
		L[fmt.Sprintf("ofswitch.hop_ns_miss_%dr", rules)] = (g.ns() - 3*cableAt(churnPayload)) / 2
	}

	r.controlRigs()
	r.configRigs()

	// The layers of the data walk, added up, against the headline: both as
	// measured, since the rigs are not probed.
	if cpu := r.info["cpu_measured_ns_per_pkt"]; live != nil && (payloadLen == small || payloadLen == large) && cpu > 0 {
		hops := float64(len(live.topo.ShortestPath(live.spec.src, live.spec.dst)))
		sum := hops*hop[payloadLen] + (hops+1)*cable[payloadLen] + hostSend[payloadLen] + hostRecv[payloadLen]
		L["layers.sum_ns_per_pkt"], L["layers.coverage_frac"] = sum, sum/cpu
		if r.workload != "coldboot-paneu28" && (sum/cpu < 0.5 || sum/cpu > 1.5) {
			r.problem("layers add up to %.0f ns of the %.0f ns per datagram (%.2f): outside 0.5-1.5", sum, cpu, sum/cpu)
		}
	}
	if r.untracedBusy > 0 {
		L["trace.overhead_frac"] = float64(r.tracedBusy-r.untracedBusy) / float64(r.untracedBusy)
	}
}

// pipelineReport prints a pipeline rig's accounts and records it as one
// span. Its busy time is process CPU, summed over every goroutine the frames
// passed through, so the span is as long as the CPU time, not the wall time.
func (r *run) pipelineReport(name string, g rigResult) {
	r.rec.interval("rig/"+name, "span length is CPU time", r.rigSpan, 0, time.Now().Add(-g.busy), time.Now())
	r.rigReport(name, g)
}

// counter is the end of a rig's pipeline: it counts arrivals and returns a
// credit for every creditBatch of them, like the workloads' receiver.
type counter struct {
	n       atomic.Int64
	credits chan struct{}
}

func newCounter() *counter {
	return &counter{credits: make(chan struct{}, 4*windowSize/creditBatch)}
}

func (c *counter) add(k int) {
	now := c.n.Add(int64(k))
	for i := now/creditBatch - (now-int64(k))/creditBatch; i > 0; i-- {
		select {
		case c.credits <- struct{}{}:
		default:
		}
	}
}

func (c *counter) batch(frames [][]byte) { c.add(len(frames)) }

// pump makes three passes of n frames through a pipeline and returns the one
// of median cost, with the failures of all three: a pass is tens of
// milliseconds long, and so are the machine's disturbances.
func pump(n int, send func(i int) bool, c *counter) rigResult {
	passes := []rigResult{pumpOnce(n, send, c), pumpOnce(n, send, c), pumpOnce(n, send, c)}
	sort.Slice(passes, func(i, j int) bool { return passes[i].ns() < passes[j].ns() })
	res := passes[1]
	res.failures = passes[0].failures + passes[1].failures + passes[2].failures
	return res
}

// pumpOnce pushes n frames through a pipeline that ends in c under the same
// blocking credit window as the workloads, and returns the process CPU it
// took: every stage's work, on whichever core it ran.
func pumpOnce(n int, send func(i int) bool, c *counter) rigResult {
	res := rigResult{attempted: n}
	for len(c.credits) > 0 {
		<-c.credits
	}
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, cpu0, base := ms.Mallocs, cpuTime(), c.n.Load()
	avail, sent := windowSize, 0
	for i := 0; i < n; i++ {
		if avail == 0 {
			timeout.Reset(drainWait)
			select {
			case <-c.credits:
				avail += creditBatch
			case <-timeout.C:
				avail = windowSize // the window's frames are lost; the count shows it
			}
		}
		if send(i) {
			sent++
			avail--
		} else {
			res.failures++
		}
	}
	for deadline := time.Now().Add(drainWait); int(c.n.Load()-base) < sent && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	res.busy = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	res.allocs = ms.Mallocs - mallocs0
	res.count = int(c.n.Load() - base)
	res.failures += sent - res.count
	return res
}

// cableRig sends n copies of frame over one cable to a receiver that only
// counts, and also returns the cable's drop counter.
func cableRig(frame []byte, n int) (rigResult, uint64) {
	nw := netemu.NewNetwork(nil)
	defer nw.Close()
	a, b := nw.NewCable(netemu.CableOpts{NameA: "a", NameB: "b", MACA: pkt.LocalMAC(1), MACB: pkt.LocalMAC(2)})
	c := newCounter()
	b.SetBatchReceiver(c.batch)
	g := pump(n, func(int) bool { return a.Send(frame) }, c)
	return g, a.Stats().Drops + b.Stats().Drops
}

// hostRig joins two hosts by one cable and measures the two halves of the
// host stack over it: raw frames into a receiving host, then SendUDP into a
// bare counting endpoint. Both include one cable hand-off, which the caller
// subtracts.
func hostRig(payloadLen, n int) (send, recv rigResult, err error) {
	nw := netemu.NewNetwork(nil)
	defer nw.Close()
	a, b := nw.NewCable(netemu.CableOpts{NameA: "h1", NameB: "h2", MACA: pkt.LocalMAC(0xb1), MACB: pkt.LocalMAC(0xb2)})
	sub := func(last int) netip.Prefix { return netip.PrefixFrom(addr4(10, 9, 0, last), 24) }
	h1, err := netemu.NewHost(netemu.HostConfig{Name: "h1", Addr: sub(1)}, a, nil)
	if err != nil {
		return send, recv, err
	}
	h2, err := netemu.NewHost(netemu.HostConfig{Name: "h2", Addr: sub(2)}, b, nil)
	if err != nil {
		return send, recv, err
	}
	if _, err := h1.Resolve(h2.Addr()); err != nil {
		return send, recv, err
	}
	payload := make([]byte, payloadLen)
	c := newCounter()

	// Receiver half first, while h2 still owns its endpoint: frames exactly
	// as h1 would send them, put on the cable raw.
	h2.BindUDP(7001, func(netip.Addr, uint16, []byte) { c.add(1) })
	u := &pkt.UDP{SrcPort: 20001, DstPort: 7001, Payload: payload}
	ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP, Src: h1.Addr(), Dst: h2.Addr(), Payload: u.Marshal(h1.Addr(), h2.Addr())}
	frame := (&pkt.Frame{Dst: h2.MAC(), Src: h1.MAC(), Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
	h1.Close() // hands the endpoint back
	recv = pump(n, func(int) bool { return a.Send(frame) }, c)

	// Sender half: h2's stack is replaced by a counter.
	h1, err = netemu.NewHost(netemu.HostConfig{Name: "h1", Addr: sub(1)}, a, nil)
	if err != nil {
		return send, recv, err
	}
	if _, err := h1.Resolve(h2.Addr()); err != nil {
		return send, recv, err
	}
	h2.Close()
	b.SetBatchReceiver(c.batch)
	send = pump(n, func(int) bool { return h1.SendUDP(h2.Addr(), 20001, 7001, payload) == nil }, c)
	return send, recv, nil
}

// hitInputs builds the inputs of the cache-hit hop rigs: 64 microflows of
// the workload's frame size and, when the workload has a live deployment,
// the flow table of its source-side switch read back with FlowTable(), every
// output redirected to the rig's one egress port. Without a deployment the
// rules are a small rf-shaped set.
func hitInputs(seed int64, payloadLen int, live *site) *churnInputs {
	in := genChurn(seed, 32, 16, fwdFlows, payloadLen+42)
	if live == nil {
		return in
	}
	sw, ok := live.d.Switch(live.spec.src)
	if !ok {
		return in
	}
	var rules []*openflow.FlowMod
	for _, fi := range sw.FlowTable() {
		fm := &openflow.FlowMod{Match: fi.Match, Command: openflow.FlowModAdd, Priority: fi.Priority,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone}
		for _, a := range fi.Actions {
			switch act := a.(type) {
			case *openflow.ActionOutput:
				a = &openflow.ActionOutput{Port: 2}
			case *openflow.ActionMultipath:
				mp := &openflow.ActionMultipath{}
				for _, bk := range act.Buckets {
					bk.Port = 2
					mp.Buckets = append(mp.Buckets, bk)
				}
				a = mp
			}
			fm.Actions = append(fm.Actions, a)
		}
		rules = append(rules, fm)
	}
	// The workload's own datagrams: host to host, one source port per flow.
	flows := genUDPFlows(seed, fwdFlows, payloadLen)
	in.frames, in.prefixOf = nil, nil
	for f := range flows.srcPort {
		payload := make([]byte, payloadLen)
		copy(payload[min(hdrLen, payloadLen):], flows.pattern[f])
		u := &pkt.UDP{SrcPort: flows.srcPort[f], DstPort: flows.dstPort, Payload: payload}
		ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP, Src: live.src.Addr(), Dst: live.dst.Addr(),
			Payload: u.Marshal(live.src.Addr(), live.dst.Addr())}
		fr := &pkt.Frame{Dst: pkt.LocalMAC(0xa2), Src: live.src.MAC(), Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
		in.frames = append(in.frames, fr.Marshal())
	}
	in.rules = [2][]*openflow.FlowMod{rules, rules}
	return in
}

// hopRig pushes n frames, round robin over in.frames, through the two-switch
// rig (source endpoint, switch, switch, counting sink: three cables and two
// hops) on a direct controller connection.
func hopRig(in *churnInputs, n int) (rigResult, error) {
	rig, _, err := newChurnRig(in, true)
	if err != nil {
		return rigResult{}, err
	}
	defer rig.close()
	c := newCounter()
	rig.sink.SetBatchReceiver(c.batch)
	send := func(i int) bool { return rig.src.Send(in.frames[i%len(in.frames)]) }
	pump(4*len(in.frames), send, c) // every microflow through both caches once
	return pump(n, send, c), nil
}

// controlRigs measures the control channel: ctlkit on a direct connection,
// the FlowVisor hop on top of it, flow-mod install into a 4096-rule table,
// and the punt of a frame no rule matches.
func (r *run) controlRigs() {
	L := r.layer
	in := genChurn(r.seed, churnRules, churnLive, 64, churnFrameLen)
	barrier := map[bool]float64{}
	for _, direct := range []bool{true, false} {
		rig, _, err := newChurnRig(in, direct)
		if err != nil {
			r.problem("control rig: %v", err)
			return
		}
		sc := rig.conn[0]
		name := map[bool]string{true: "direct", false: "via-flowvisor"}[direct]
		rtt := newSamples(300)
		r.calls("ctlkit.Barrier/"+name, 300, func(int) bool {
			start := time.Now()
			err := sc.Barrier()
			rtt.add(time.Since(start).Nanoseconds())
			return err == nil
		})
		barrier[direct] = float64(rtt.percentile(50)) / 1e3
		if direct {
			L["ctlkit.barrier_rtt_us"] = barrier[true]
			decoy := in.decoys[0][0]
			install := newSamples(200)
			r.calls("ofswitch.FlowModAdd+Barrier/4096r", 200, func(int) bool {
				d, err := addBarrier(sc, decoy)
				install.add(d.Nanoseconds())
				return err == nil && deleteStrict(sc, decoy) == nil
			})
			L["ofswitch.flowmod_install_us_4096r"] = float64(install.percentile(50)) / 1e3
			// Fewer sends than the connection's queue holds: Send is timed
			// enqueueing, never blocked on a full queue.
			L["ctlkit.send_ns"] = r.calls("ctlkit.SwitchConn.Send", 1000, func(int) bool {
				return sc.Send(&openflow.EchoRequest{}) == nil
			}).ns()
			L["ofswitch.punt_us"] = r.puntRig(rig)
		}
		rig.close()
	}
	L["flowvisor.hop_us"] = barrier[false] - barrier[true]
}

// puntRig times a frame no rule matches from the wire to the controller's
// PacketIn callback.
func (r *run) puntRig(rig *churnRig) float64 {
	frame := udpFrame(addr4(192, 0, 2, 1), small) // a destination no rule covers
	seen := make(chan struct{}, 1)
	rig.onPacketIn.Store(func() { seen <- struct{}{} })
	defer rig.onPacketIn.Store(func() {})
	rtt := newSamples(300)
	r.calls("ofswitch.punt", 300, func(int) bool {
		start := time.Now()
		if !rig.src.Send(frame) {
			return false
		}
		select {
		case <-seen:
			rtt.add(time.Since(start).Nanoseconds())
			return true
		case <-time.After(time.Second):
			return false
		}
	})
	return float64(rtt.percentile(50)) / 1e3
}

// configRigs measures the layers of the config walk below the control
// channel: the RPC hop, the desired-state reconciler, rf's apply path, the
// VM slow path, OSPF's SPF and the RIB.
func (r *run) configRigs() {
	L := r.layer

	// rpcconf: one configuration message to a server that does nothing.
	ln := ctlkit.NewMemListener("rig-rpc")
	defer ln.Close()
	srv := rpcconf.NewServer(func(*rpcconf.Message) error { return nil })
	go srv.Serve(ln)
	defer srv.Stop()
	cli := rpcconf.NewClient(ln.Dial, nil)
	defer cli.Close()
	L["rpcconf.send_ack_us"] = r.calls("rpcconf.Client.Send", 2000, func(i int) bool {
		return cli.Send(rpcconf.SwitchUp(uint64(i+1), 4)) == nil
	}).us()

	// intent: a store of 100 declared items drained by a reconciler.
	drain := r.calls("intent.Reconciler/100items", 5, func(int) bool {
		store := intent.NewStore()
		for i := 0; i < 100; i++ {
			dpid := uint64(i + 1)
			store.Declare(intent.SwitchKey(dpid), rpcconf.SwitchUp(dpid, 4), rpcconf.SwitchDown(dpid))
		}
		rec := intent.NewReconciler(nil, store, cli)
		rec.Run()
		defer rec.Stop()
		for deadline := time.Now().Add(5 * time.Second); !store.Converged(); {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(50 * time.Microsecond)
		}
		return true
	})
	L["intent.drain_ms_100items"] = drain.ns() / 1e6

	// rf: the RPC handler applying the pan-European topology's switch-ups
	// and link-ups (VM creation, interface addressing, config files).
	g := routeflow.PanEuropean()
	platform, err := rf.New(rf.Config{Pool: netip.MustParsePrefix("172.16.0.0/16"), BootDelay: time.Hour})
	if err != nil {
		r.problem("rf rig: %v", err)
		return
	}
	apply := platform.RPCHandler()
	nodes, links := g.Nodes(), g.Links()
	L["rf.apply_us_switch_up"] = r.calls("rf.RPCHandler/switch-up", len(nodes), func(i int) bool {
		return apply(rpcconf.SwitchUp(routeflow.DPIDForNode(nodes[i].ID), g.Ports(nodes[i].ID))) == nil
	}).us()
	L["rf.apply_us_link_up"] = r.calls("rf.RPCHandler/link-up", len(links), func(i int) bool {
		l := links[i]
		a := netip.PrefixFrom(addr4(172, 16, i, 1), 30)
		b := netip.PrefixFrom(addr4(172, 16, i, 2), 30)
		return apply(rpcconf.LinkUp(routeflow.DPIDForNode(l.A), uint16(l.APort), routeflow.DPIDForNode(l.B), uint16(l.BPort), a, b)) == nil
	}).us()
	platform.Stop()

	L["vnet.inject_ns"] = r.injectRig()
	L["ospf.spf_us_28"] = r.spfRig(28)

	// rib: a 41-route OSPF table, as a pan-European VM holds.
	table := rib.New()
	var routes []rib.Route
	for i := 0; i < 41; i++ {
		routes = append(routes, rib.Route{Prefix: netip.PrefixFrom(addr4(172, 16, i, 0), 30),
			NextHop: addr4(172, 16, 100, 1+i%3), Iface: vnet.IfaceName(uint16(1 + i%3)), Source: rib.SourceOSPF, Metric: uint32(10 * (1 + i%5))})
	}
	L["rib.replace_source_us_41"] = r.calls("rib.ReplaceSource/41", 2000, func(i int) bool {
		routes[i%41].Metric++ // every replacement changes one route
		table.ReplaceSource(rib.SourceOSPF, routes)
		return table.Len() == 41
	}).us()
	L["rib.lookup_ns"] = r.calls("rib.Lookup", 200000, func(i int) bool {
		_, ok := table.Lookup(addr4(172, 16, i%41, 1))
		return ok
	}).ns()
	L["rib.lookup_all_ns"] = r.calls("rib.LookupAll", 200000, func(i int) bool {
		return len(table.LookupAll(addr4(172, 16, i%41, 1))) > 0
	}).ns()
}

// injectRig times the VM slow path: an IPv4 frame punted into one interface,
// routed and transmitted out of another.
func (r *run) injectRig() float64 {
	clk := routeflow.ScaledClock(1000)
	vm, err := vnet.New(vnet.Config{DPID: 1, Ports: 2, RouterID: addr4(10, 255, 0, 1), Clock: clk, BootDelay: time.Second})
	if err != nil {
		r.problem("inject rig: %v", err)
		return 0
	}
	defer vm.Destroy()
	ready := make(chan struct{})
	vm.OnReady(func() { close(ready) })
	var out atomic.Int64
	vm.OnTransmit(func(uint16, []byte) { out.Add(1) })
	pool := netip.MustParsePrefix("10.9.0.0/16")
	for port, last := range map[uint16]int{1: 1, 2: 2} {
		if err := vm.ConfigureInterface(port, netip.PrefixFrom(addr4(10, 9, last, 1), 24), 10, pool); err != nil {
			r.problem("inject rig: %v", err)
			return 0
		}
	}
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		r.problem("inject rig: VM did not boot")
		return 0
	}
	hostA, hostB := pkt.LocalMAC(0xaa), pkt.LocalMAC(0xbb)
	mac1, _ := vm.InterfaceMAC(1)
	// Host B introduces itself, so the VM needs no ARP round to reach it.
	arp := pkt.NewARPRequest(hostB, addr4(10, 9, 2, 100), addr4(10, 9, 2, 1))
	vm.Inject(2, (&pkt.Frame{Dst: pkt.BroadcastMAC, Src: hostB, Type: pkt.EtherTypeARP, Payload: arp.Marshal()}).Marshal())
	srcIP, dstIP := addr4(10, 9, 1, 100), addr4(10, 9, 2, 100)
	u := &pkt.UDP{SrcPort: 1, DstPort: 2, Payload: make([]byte, small)}
	ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP, Src: srcIP, Dst: dstIP, Payload: u.Marshal(srcIP, dstIP)}
	frame := (&pkt.Frame{Dst: mac1, Src: hostA, Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
	before := out.Load()
	g := r.calls("vnet.VM.Inject", 50000, func(int) bool {
		vm.Inject(1, append([]byte(nil), frame...)) // Inject keeps the frame
		return true
	})
	if sent := out.Load() - before; sent < int64(g.count) {
		r.problem("inject rig: VM forwarded %d of %d injected frames", sent, g.count)
	}
	return g.ns()
}

// spfRig converges a ring of n OSPF instances wired back to back and times
// RunSPFNow on one of them.
func (r *run) spfRig(n int) float64 {
	clk := routeflow.ScaledClock(200)
	insts := make([]*ospf.Instance, n)
	for i := range insts {
		inst, err := ospf.New(ospf.Config{RouterID: addr4(10, 255, 1, i+1), RIB: rib.New(), Clock: clk,
			HelloInterval: time.Second, DeadInterval: 4 * time.Second})
		if err != nil {
			r.problem("spf rig: %v", err)
			return 0
		}
		insts[i] = inst
	}
	// Link i joins instance i's "right" interface to instance i+1's "left".
	ifcs := make([][2]*ospf.Interface, n)
	for i := range insts {
		j := (i + 1) % n
		a, b := netip.PrefixFrom(addr4(172, 20, i, 1), 30), netip.PrefixFrom(addr4(172, 20, i, 2), 30)
		right, err1 := insts[i].AddInterface("right", a, 10, func(_ netip.Addr, p []byte) {
			ifcs[j][0].Deliver(a.Addr(), append([]byte(nil), p...))
		})
		left, err2 := insts[j].AddInterface("left", b, 10, func(_ netip.Addr, p []byte) {
			ifcs[i][1].Deliver(b.Addr(), append([]byte(nil), p...))
		})
		if err1 != nil || err2 != nil {
			r.problem("spf rig: %v %v", err1, err2)
			return 0
		}
		ifcs[i][1], ifcs[j][0] = right, left
	}
	for _, inst := range insts {
		inst.Start()
		defer inst.Stop()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		full := 0
		for _, inst := range insts {
			if inst.FullNeighbors() == 2 && inst.LSDBSize() == n {
				full++
			}
		}
		if full == n {
			break
		}
		if time.Now().After(deadline) {
			r.problem("spf rig: ring of %d did not converge", n)
			return 0
		}
	}
	runs0 := insts[0].SPFRuns()
	g := r.calls(fmt.Sprintf("ospf.RunSPFNow/%d", n), 500, func(int) bool {
		insts[0].RunSPFNow()
		return true
	})
	if insts[0].SPFRuns()-runs0 < uint64(g.count) {
		r.problem("spf rig: RunSPFNow did not run SPF every time")
	}
	return g.us()
}

// siteReadouts fills the per-layer metrics read from a running deployment's
// public read-outs after a boot.
func (r *run) siteReadouts(st *site, bt bootTimes) {
	L := r.layer
	var sends, failures, resyncs uint64
	for _, store := range st.d.TopologyController().Stores() {
		s := store.Statistics()
		sends, failures, resyncs = sends+s.Sends, failures+s.Failures, resyncs+s.Resyncs
	}
	L["intent.sends"], L["intent.failures"], L["intent.resyncs"] = float64(sends), float64(failures), float64(resyncs)
	L["rf.rpc_applied"] = float64(st.d.RPCServerApplied())
	var flows int
	var spf uint64
	for _, n := range st.topo.Nodes() {
		if sw, ok := st.d.Switch(n.ID); ok {
			flows += sw.NumFlows()
		}
		dpid := routeflow.DPIDForNode(n.ID)
		if p, ok := st.d.OwnerPlatform(dpid); ok {
			if vm, ok := p.VM(dpid); ok {
				spf += vm.Router().OSPF().SPFRuns()
			}
		}
	}
	L["rf.flows_installed"], L["ospf.spf_runs"] = float64(flows), float64(spf)
	L["vnet.boot_to_green_proto_s"] = bt.green.Seconds()
	L["ospf.all_full_proto_s"] = bt.allFull.Seconds()
	L["discovery.all_links_proto_s"] = bt.allLinks.Seconds()
}
