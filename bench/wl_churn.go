package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"routeflow/internal/ctlkit"
	"routeflow/internal/flowvisor"
	"routeflow/internal/netemu"
	"routeflow/internal/ofswitch"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// churnRig is the hand-wired rig of churn-4k and of the ofswitch rigs: a
// source endpoint, two switches and a sink endpoint joined by netemu cables,
// both switches started on connections dialled through a FlowVisor to a
// controller the benchmark owns.
type churnRig struct {
	in   *churnInputs
	net  *netemu.Network
	sw   [2]*ofswitch.Switch
	src  *netemu.Endpoint
	sink *netemu.Endpoint
	// onPacketIn, when set to a func(), sees every packet-in the rig's
	// controller receives.
	onPacketIn atomic.Value
	ctl        *ctlkit.Controller
	fv         *flowvisor.FlowVisor
	lns        []*ctlkit.MemListener
	conn       [2]*ctlkit.SwitchConn
	tr         *traffic
	rules      [2]int // rules each switch should hold right now
}

// newChurnRig wires the rig, connects both switches and installs in.rules.
// direct skips the FlowVisor (the rigs use it to price the proxy hop). The
// rig's boot is returned as a deployment's is: configured is the time from
// dialling to every rule being barrier-acked, on the wall clock, and cpu the
// process CPU of building, dialling and installing.
func newChurnRig(in *churnInputs, direct bool) (*churnRig, bootTimes, error) {
	cpu0 := cpuTime()
	g := &churnRig{in: in, net: netemu.NewNetwork(nil)}
	cable := func(a, b string, ma, mb uint64) (*netemu.Endpoint, *netemu.Endpoint) {
		return g.net.NewCable(netemu.CableOpts{NameA: a, NameB: b, MACA: pkt.LocalMAC(ma), MACB: pkt.LocalMAC(mb)})
	}
	src, s1in := cable("src", "s1:1", 0xa1, 0xc00001)
	s1out, s2in := cable("s1:2", "s2:1", 0xc00002, 0xc10001)
	s2out, sink := cable("s2:2", "sink", 0xc10002, 0xa3)
	g.src, g.sink = src, sink
	for i, ports := range [2][2]*netemu.Endpoint{{s1in, s1out}, {s2in, s2out}} {
		g.sw[i] = ofswitch.New(ofswitch.Config{DPID: uint64(i + 1), Name: fmt.Sprintf("rig-s%d", i+1)})
		for p, ep := range ports {
			if err := g.sw[i].AttachPort(uint16(p+1), ep); err != nil {
				return nil, bootTimes{}, err
			}
		}
	}

	up := make(chan *ctlkit.SwitchConn, 2)
	g.ctl = ctlkit.New("bench-controller", nil, ctlkit.Callbacks{
		SwitchUp: func(sc *ctlkit.SwitchConn) { up <- sc },
		PacketIn: func(*ctlkit.SwitchConn, *openflow.PacketIn) {
			if f, ok := g.onPacketIn.Load().(func()); ok {
				f()
			}
		},
	})
	ctlL := ctlkit.NewMemListener("bench-controller")
	g.lns = append(g.lns, ctlL)
	go g.ctl.Serve(ctlL)
	dial := ctlL.Dial
	if !direct {
		g.fv = flowvisor.New("bench-fv", []flowvisor.Slice{flowvisor.DefaultSlice("bench", ctlL.Dial)})
		fvL := ctlkit.NewMemListener("bench-fv")
		g.lns = append(g.lns, fvL)
		go g.fv.Serve(fvL)
		dial = fvL.Dial
	}
	start := time.Now()
	for _, sw := range g.sw {
		conn, err := dial()
		if err != nil {
			g.close()
			return nil, bootTimes{}, err
		}
		if err := sw.Start(conn); err != nil {
			g.close()
			return nil, bootTimes{}, err
		}
	}
	for range g.sw {
		select {
		case sc := <-up:
			g.conn[sc.DPID()-1] = sc
		case <-time.After(10 * time.Second):
			g.close()
			return nil, bootTimes{}, fmt.Errorf("rig switches did not connect")
		}
	}
	for i, sc := range g.conn {
		for _, fm := range in.rules[i] {
			cp := *fm
			if err := sc.Send(&cp); err != nil {
				g.close()
				return nil, bootTimes{}, err
			}
		}
		// One switch after the other: how far two installs overlap is up
		// to the scheduler, and the time to configured should not be.
		if err := sc.Barrier(); err != nil {
			g.close()
			return nil, bootTimes{}, err
		}
		g.rules[i] = len(in.rules[i])
	}
	rb := bootTimes{configured: time.Since(start), cpu: cpuTime() - cpu0}
	for i, sw := range g.sw {
		if n := sw.NumFlows(); n != g.rules[i] {
			g.close()
			return nil, rb, fmt.Errorf("switch %d holds %d flows after install, want %d", i+1, n, g.rules[i])
		}
	}
	g.wireTraffic()
	return g, rb, nil
}

// wireTraffic connects the generator to the source endpoint and the checking
// receiver to the sink.
func (g *churnRig) wireTraffic() {
	in := g.in
	t := newTraffic(len(in.frames))
	frameLen := len(in.frames[0])
	// Frames are copied into a batch arena and stamped there: one flow can
	// appear twice in a batch.
	arena := make([]byte, creditBatch*frameLen)
	batch := make([][]byte, 0, creditBatch)
	t.flush = func() {
		if len(batch) > 0 {
			g.src.SendBatch(batch) // a refused frame shows up as a lost datagram
			batch = batch[:0]
		}
	}
	t.send = func(flow int, seq uint32, stamp int64, phase uint8) bool {
		slot := arena[len(batch)*frameLen:][:frameLen]
		copy(slot, in.frames[flow])
		putRawHeader(rawPayload(slot), flow, seq, stamp, phase)
		if batch = append(batch, slot); len(batch) == creditBatch {
			t.flush()
		}
		return true
	}
	var cursor uint64
	t.pick = func(uint64) int {
		cursor++
		return int(in.schedule[cursor%uint64(len(in.schedule))])
	}
	g.sink.SetReceiver(func(frame []byte) {
		if len(frame) != frameLen {
			t.rx.accept(0, 0, 0, 0, false)
			return
		}
		p := rawPayload(frame)
		flow, seq, stamp, phase := parseHeader(p)
		ok := flow < len(in.frames)
		for i := 0; ok && i < 16; i++ {
			ok = p[16+i] == ^p[i]
		}
		// The last switch's rule for the destination's /24 is the only one
		// that writes this MAC: it proves which rule forwarded the frame.
		ok = ok && [6]byte(frame[0:6]) == in.dlDst[1][in.prefixOf[flow]] &&
			bytes.Equal(p[rawHdrLen:], rawPayload(in.frames[flow])[rawHdrLen:])
		t.rx.accept(flow, seq, stamp, phase, ok)
	})
	g.tr = t
}

// churnStep returns the flow-mod probe's step: the next add or delete-strict
// of the churn sequence, the adds timed to their barrier reply.
func (g *churnRig) churnStep() func() (time.Duration, error) {
	next := 0
	return func() (time.Duration, error) {
		op := g.in.ops[next%len(g.in.ops)]
		next++
		decoy := g.in.decoys[op.sw][op.idx]
		if op.del {
			g.rules[op.sw]--
			return 0, deleteStrict(g.conn[op.sw], decoy)
		}
		g.rules[op.sw]++
		return addBarrier(g.conn[op.sw], decoy)
	}
}

func (g *churnRig) close() {
	for _, sw := range g.sw {
		if sw != nil {
			sw.Stop()
		}
	}
	if g.fv != nil {
		g.fv.Stop()
	}
	g.ctl.Stop()
	for _, l := range g.lns {
		l.Close()
	}
	g.net.Close()
}

const (
	// churnEvery is the pace of the flow-mod churn: 20 flow-mods a second.
	churnEvery = 50 * time.Millisecond
	// churnSetups is how many times a run builds the rig: an install is a
	// quarter of a second of CPU-bound work and scatters by a tenth, so it
	// takes the median of more of them than the deployments' boots need.
	churnSetups = 5
)

// runChurn is churn-4k: the rig with 4096 rf-shaped rules per switch, 8192
// microflows of 512 B frames picked by Zipf(1.2) popularity under the closed
// loop, and 20 flow-mods/s beside the traffic. The cache misses, so the linear scan and
// the whole-cache invalidation on every flow-mod do the work.
func runChurn(r *run) error {
	in := genChurn(r.seed, churnRules, churnLive, churnFlows, churnFrameLen)
	var (
		rig    *churnRig
		setups []float64
		boots  []bootTimes
	)
	for i := 0; i < churnSetups; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		sp := r.rec.begin("rig/build-install-barrier", 0, i)
		var rb bootTimes
		var err error
		if rig, rb, err = newChurnRig(in, false); err != nil {
			return err
		}
		r.rec.end(sp)
		warm := rig.tr.closedLoop(warmUp)
		setups = append(setups, time.Since(t0).Seconds())
		// The install is CPU-bound from end to end, so it is read as on the
		// undisturbed machine, by the probe's readings over the warm-up that
		// follows it. (Readings taken between slices of the install itself
		// scatter: the probe reads differently after a few milliseconds of
		// flow-mods than after a slice of traffic.)
		rb.configured = time.Duration(float64(rb.configured) / median(warm.segSlow))
		boots = append(boots, rb)
	}
	defer rig.close()
	r.bootMetrics(setups, boots)

	probe := startFlowModProbe(churnEvery, rig.churnStep())
	r.closedPhase(rig.tr, r.share(1))
	probe.stop()
	for i, sc := range rig.conn {
		if err := sc.Barrier(); err != nil {
			return err
		}
		if n := rig.sw[i].NumFlows(); n != rig.rules[i] {
			r.problem("switch %d ends with %d flows, want %d", i+1, n, rig.rules[i])
		}
	}
	r.e2e["flowmod_barrier_p50_us"] = float64(probe.rtt.percentile(50)) / 1e3
	r.info["flowmod_samples"] = float64(probe.rtt.count())
	r.info["flowmods_sent"] = float64(probe.sent)
	if probe.errs > 0 {
		r.problem("%d of %d flow-mods failed", probe.errs, probe.sent)
	}
	if r.rec != nil {
		if c, ok := rig.fv.Counters("bench"); ok {
			r.layer["flowvisor.packet_ins"] = float64(c.PacketIns)
			r.layer["flowvisor.to_switch"] = float64(c.ToSwitch)
			r.layer["flowvisor.to_controller"] = float64(c.ToController)
		}
		base, err := churnBaseline(r.seed)
		if err != nil {
			return err
		}
		r.layer["churn.baseline_256r_pps"] = base
		if goodput := r.e2e["goodput_pps"]; goodput > base/2 {
			r.problem("goodput %.0f/s is more than half the %.0f/s of the same rig at 256 rules and 1024 flows: the workload no longer stresses the classifier", goodput, base)
		}
		r.rigs(churnFrameLen-42, nil)
	}
	return nil
}

// churnBaseline is the same rig with only the 256 live rules and 1024
// microflows (one cache shard's worth), without flow-mods: what churn-4k's
// goodput is held against.
func churnBaseline(seed int64) (float64, error) {
	rig, _, err := newChurnRig(genChurn(seed, churnLive, churnLive, 1024, churnFrameLen), false)
	if err != nil {
		return 0, err
	}
	defer rig.close()
	rig.tr.closedLoop(warmUp / 2)
	a := rig.tr.closedLoop(2 * time.Second)
	if a.lost()+a.bad > 0 {
		return 0, fmt.Errorf("baseline rig lost %d and failed %d of %d frames", a.lost(), a.bad, a.sent)
	}
	return median(a.segPPS), nil
}
