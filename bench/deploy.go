package main

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"routeflow"
	"routeflow/internal/ctlkit"
	"routeflow/internal/flowvisor"
	"routeflow/internal/openflow"
	"routeflow/internal/vnet"
)

// Every deployment runs the paper's conditions at a 25x time compression:
// RFC OSPF timers, 1 s LLDP probes, a 2 s modelled VM boot. Durations read
// off a deployment's clock are protocol time.
const (
	timeScale   = 25
	bootTimeout = 5 * time.Minute // protocol time
)

// deploySpec names a deployment: a topology, the two nodes that get a host,
// and the size of the controller cluster (0 = the paper's single rf-server).
type deploySpec struct {
	topo     func() *routeflow.Topology
	src, dst int
	replicas int
}

// site is one booted deployment and the handles the workloads use.
type site struct {
	d        *routeflow.Deployment
	topo     *routeflow.Topology
	spec     deploySpec
	src, dst *routeflow.Host
	// started is when Start was called, on the wall clock.
	started time.Time
	status  *statusLog
}

// protoSince converts a wall-clock instant to protocol time since Start.
func (s *site) protoSince(t time.Time) time.Duration { return t.Sub(s.started) * timeScale }

// bootTimes is what one cold boot measured. Durations are protocol time
// since Start unless named otherwise.
type bootTimes struct {
	assembleWall time.Duration // New() and the video endpoints, wall clock
	bootWall     time.Duration // Start to converged, wall clock
	configured   time.Duration // every switch green
	firstFrame   time.Duration // first video frame at the client
	converged    time.Duration
	cpu          time.Duration // process user+sys, New() to converged
	frames       uint64        // video frames the client had when the boot ended
	// Read by polling, traced boots only.
	allLinks time.Duration // discovery holds every link
	allFull  time.Duration // every OSPF adjacency Full
	green    time.Duration // median per switch: VM booting to VM up
}

// statusLog collects the per-switch red-to-green transitions WithOnStatus
// reports.
type statusLog struct {
	mu      sync.Mutex
	booting map[uint64]time.Time
	up      map[uint64]time.Time
}

func (l *statusLog) observe(dpid uint64, st routeflow.VMState) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch st {
	case vnet.StateBooting:
		if _, seen := l.booting[dpid]; !seen {
			l.booting[dpid] = now
		}
	case vnet.StateUp:
		if _, seen := l.up[dpid]; !seen {
			l.up[dpid] = now
		}
	}
}

// boot assembles a deployment, starts the video stream against the cold
// network, starts the network and waits for configured, first frame and
// converged: the paper's experiment. With a recorder it also polls the
// public read-outs for the milestones in between and records them as spans
// under one "boot" span carrying cycle.
func boot(spec deploySpec, rec *recorder, cycle int) (*site, bootTimes, error) {
	var bt bootTimes
	cpu0, t0 := cpuTime(), time.Now()
	clk := routeflow.ScaledClock(timeScale)
	g := spec.topo()
	s := &site{topo: g, spec: spec}
	opts := []routeflow.Option{
		routeflow.WithClock(clk), routeflow.WithHosts(spec.src, spec.dst),
		routeflow.WithBootDelay(2 * time.Second), routeflow.WithTimers(routeflow.DefaultExperimentTimers()),
		routeflow.WithProbeInterval(time.Second), routeflow.WithLinkTTL(3 * time.Second),
	}
	if spec.replicas > 1 {
		opts = append(opts, routeflow.WithReplicas(spec.replicas))
	}
	if rec != nil {
		s.status = &statusLog{booting: map[uint64]time.Time{}, up: map[uint64]time.Time{}}
		opts = append(opts, routeflow.WithOnStatus(s.status.observe))
	}
	d, err := routeflow.New(g, opts...)
	if err != nil {
		return nil, bt, err
	}
	s.d = d
	s.src, _ = d.Host(spec.src)
	s.dst, _ = d.Host(spec.dst)
	client, err := routeflow.NewVideoClient(s.dst, 0, clk)
	if err != nil {
		d.Close()
		return nil, bt, err
	}
	defer client.Close()
	server, err := routeflow.NewVideoServer(routeflow.VideoServerConfig{Host: s.src, Dst: s.dst.Addr(), Clock: clk})
	if err != nil {
		d.Close()
		return nil, bt, err
	}
	// The paper's ordering: the stream starts first, against a network with
	// no configuration at all.
	server.Start()
	defer server.Stop()
	bt.assembleWall = time.Since(t0)

	startAt := clk.Now()
	s.started = time.Now()
	if err := d.Start(); err != nil {
		d.Close()
		return nil, bt, err
	}
	var poll *milestones
	if rec != nil {
		poll = watchMilestones(s)
	}
	fail := func(err error) (*site, bootTimes, error) {
		if poll != nil {
			poll.stop()
		}
		d.Close()
		return nil, bt, err
	}
	if bt.configured, err = d.AwaitConfigured(bootTimeout); err != nil {
		return fail(err)
	}
	if err := client.AwaitFirstFrame(bootTimeout); err != nil {
		return fail(err)
	}
	bt.firstFrame = client.Stats().FirstFrame.Sub(startAt)
	if bt.converged, err = d.AwaitConverged(bootTimeout); err != nil {
		return fail(err)
	}
	bt.bootWall = time.Since(s.started)
	bt.cpu = cpuTime() - cpu0
	bt.frames = client.Stats().Frames
	if gap := d.ConvergenceGap(); gap != "" {
		return fail(fmt.Errorf("converged but ConvergenceGap() = %q", gap))
	}
	if bt.frames == 0 {
		return fail(fmt.Errorf("converged with no video frame delivered"))
	}
	if poll != nil {
		poll.stop()
		bt.allLinks, bt.allFull = s.protoSince(poll.allLinks), s.protoSince(poll.allFull)
		bt.green = s.recordBoot(rec, cycle, bt, poll)
	}
	return s, bt, nil
}

// milestones polls a starting deployment's public read-outs once per
// millisecond of wall time (25 ms of protocol time) for the two milestones
// no Await helper reports.
type milestones struct {
	allLinks, allFull time.Time
	quit, done        chan struct{}
}

func watchMilestones(s *site) *milestones {
	m := &milestones{quit: make(chan struct{}), done: make(chan struct{})}
	links := s.topo.NumLinks()
	go func() {
		defer close(m.done)
		for m.allLinks.IsZero() || m.allFull.IsZero() {
			select {
			case <-m.quit:
				return
			case <-time.After(time.Millisecond):
			}
			now := time.Now()
			if m.allLinks.IsZero() && len(s.d.Discovery().Links()) == links {
				m.allLinks = now
			}
			if m.allFull.IsZero() && s.fullAdjacencies() == 2*links {
				m.allFull = now
			}
		}
	}()
	return m
}

// stop ends the polling. A milestone the last poll had not seen yet has been
// reached by now, since stop is called once the deployment has converged.
func (m *milestones) stop() {
	close(m.quit)
	<-m.done
	for _, t := range []*time.Time{&m.allLinks, &m.allFull} {
		if t.IsZero() {
			*t = time.Now()
		}
	}
}

// fullAdjacencies sums the Full OSPF neighbours over every switch's VM.
func (s *site) fullAdjacencies() int {
	total := 0
	for _, n := range s.topo.Nodes() {
		dpid := routeflow.DPIDForNode(n.ID)
		if p, ok := s.d.OwnerPlatform(dpid); ok {
			if vm, ok := p.VM(dpid); ok {
				total += vm.Router().OSPF().FullNeighbors()
			}
		}
	}
	return total
}

// recordBoot writes one boot's milestones as spans and returns the median
// booting-to-green time over the switches (protocol time).
func (s *site) recordBoot(rec *recorder, cycle int, bt bootTimes, poll *milestones) time.Duration {
	at := func(proto time.Duration) time.Time { return s.started.Add(proto / timeScale) }
	root := rec.interval("boot", "", 0, cycle, s.started, at(bt.converged))
	rec.interval("boot/configured", "", root, cycle, s.started, at(bt.configured))
	rec.interval("boot/all-links-discovered", "", root, cycle, s.started, poll.allLinks)
	rec.interval("boot/all-adjacencies-full", "", root, cycle, s.started, poll.allFull)
	rec.interval("boot/first-frame", "", root, cycle, s.started, at(bt.firstFrame))
	var green []float64
	s.status.mu.Lock()
	for dpid, up := range s.status.up {
		if booting, ok := s.status.booting[dpid]; ok {
			// Detection is the moment the RPC server was told of the switch,
			// which is when its VM starts booting.
			note := fmt.Sprintf("dpid %d", dpid)
			sw := rec.interval("switch", note, root, cycle, s.started, up)
			rec.interval("switch/detected", note, sw, cycle, s.started, booting)
			rec.interval("switch/vm-booting", note, sw, cycle, booting, up)
			green = append(green, float64(up.Sub(booting)*timeScale))
		}
	}
	s.status.mu.Unlock()
	return time.Duration(median(green))
}

func (s *site) close() { s.d.Close() }

// udpStream wires a generated stream between the site's two hosts: the
// generator sends through the source host's UDP stack, the destination
// host's handler checks source, flow, pattern and hands the datagram to the
// receiver.
func (s *site) udpStream(flows *udpFlows, payloadLen int) *traffic {
	t := newTraffic(len(flows.srcPort))
	buf := make([]byte, payloadLen)
	dst, from := s.dst.Addr(), s.src.Addr()
	t.send = func(flow int, seq uint32, stamp int64, phase uint8) bool {
		putHeader(buf, flow, seq, stamp, phase)
		copy(buf[hdrLen:], flows.pattern[flow])
		return s.src.SendUDP(dst, flows.srcPort[flow], flows.dstPort, buf) == nil
	}
	s.dst.BindUDP(flows.dstPort, func(src netip.Addr, srcPort uint16, payload []byte) {
		if len(payload) != payloadLen {
			t.rx.accept(0, 0, 0, 0, false)
			return
		}
		flow, seq, stamp, phase := parseHeader(payload)
		ok := src == from && flow < len(flows.srcPort) && srcPort == flows.srcPort[flow] &&
			bytes.Equal(payload[hdrLen:], flows.pattern[flow])
		t.rx.accept(flow, seq, stamp, phase, ok)
	})
	return t
}

// probeRule is a flow-mod of the shape rf installs for a link: a /30 in its
// link band that no generated datagram is addressed to.
func probeRule() *openflow.FlowMod {
	return rfRule(netip.Prefix{}, netip.MustParsePrefix("172.31.255.252/30"), prioLink30,
		[6]byte{2, 0, 0, 0, 0xfe, 1}, [6]byte{2, 0, 0, 0, 0xfe, 2}, 1)
}

// flowModProbe runs a control-plane step every interval, beside the traffic,
// until stopped, and keeps the round-trip time of every step that timed a
// FlowModAdd to its barrier reply.
type flowModProbe struct {
	rtt        *samples
	sent, errs int
	quit, done chan struct{}
}

// startFlowModProbe starts the probe. step reports the round trip it timed
// (0 when the step was an untimed one) or an error, which is counted.
func startFlowModProbe(interval time.Duration, step func() (time.Duration, error)) *flowModProbe {
	p := &flowModProbe{rtt: newSamples(1024), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			p.sent++
			rtt, err := step()
			if err != nil {
				p.errs++
			} else if rtt > 0 {
				p.rtt.add(rtt.Nanoseconds())
			}
		}
	}()
	return p
}

func (p *flowModProbe) stop() {
	close(p.quit)
	<-p.done
}

// addBarrier sends a FlowModAdd and times it to the barrier reply that
// proves the switch has applied it.
func addBarrier(sc *ctlkit.SwitchConn, add *openflow.FlowMod) (time.Duration, error) {
	fm := *add
	fm.SetXID(0)
	start := time.Now()
	if err := sc.Send(&fm); err != nil {
		return 0, err
	}
	if err := sc.Barrier(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// deleteStrict removes exactly the flow add installed; it is not timed.
func deleteStrict(sc *ctlkit.SwitchConn, add *openflow.FlowMod) error {
	return sc.Send(&openflow.FlowMod{Match: add.Match, Command: openflow.FlowModDeleteStrict, Priority: add.Priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone})
}

// fvCounters reads the rf slice's counters off the deployment's FlowVisor (a
// clustered deployment runs one proxy per switch and exposes none).
func fvCounters(st *site) (flowvisor.Counters, bool) {
	fv := st.d.FlowVisor()
	if fv == nil {
		return flowvisor.Counters{}, false
	}
	return fv.Counters("rf")
}
