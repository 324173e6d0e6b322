package main

import (
	"runtime"
	"time"

	"routeflow"
	"routeflow/internal/flowvisor"
)

// Shape of the traffic phases the workloads share.
const (
	fwdFlows     = 64
	openLoopRate = 10000 // datagrams/s of every fixed-rate phase
	warmUp       = time.Second
	setupRounds  = 3 // set-ups per run; setup_s is their median
)

// closedPhase runs the closed loop on a warmed-up stream for d and fills
// goodput and CPU per datagram, at zero loss, as medians over its segments,
// each read as on the undisturbed machine (see probe.go).
// An operation is a datagram; one not delivered and verified within
// drainWait of the phase's end has failed.
func (r *run) closedPhase(tr *traffic, d time.Duration) phaseResult {
	sp := r.rec.begin("phase/closed-loop", 0, 0)
	a := tr.closedLoop(d)
	r.rec.end(sp)
	r.account(a)
	if a.maxInFlight > windowSize {
		r.problem("credit window exceeded: %d in flight", a.maxInFlight)
	}
	r.e2e["goodput_pps"] = median(a.segPPS)
	r.e2e["cpu_ns_per_pkt"] = median(a.segCPUns)
	r.info["goodput_measured_pps"] = median(a.segRawPPS)
	measuredCPU := make([]float64, len(a.segCPUns))
	for i, ns := range a.segCPUns {
		measuredCPU[i] = ns * a.segSlow[i]
	}
	r.info["cpu_measured_ns_per_pkt"] = median(measuredCPU)
	r.info["machine_slowdown"] = median(a.segSlow)
	r.info["closed_loop_segments"] = float64(len(a.segPPS))
	r.info["closed_loop_datagrams"] = float64(a.delivered)
	if r.rec != nil {
		r.layer["process.allocs_per_pkt"] = float64(a.mallocs) / float64(max(a.delivered, 1))
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.layer["process.heap_inuse_mb"] = float64(ms.HeapInuse) / (1 << 20)
		r.layer["gen.credit_stalls"] = float64(a.stalls)
	}
	return a
}

// openPhase runs the open loop at openLoopRate for d and fills the latency
// figures: each datagram is timed from when it was due.
func (r *run) openPhase(tr *traffic, d time.Duration) phaseResult {
	sp := r.rec.begin("phase/open-loop", 0, 0)
	b := tr.openLoop(openLoopRate, d)
	r.rec.end(sp)
	r.account(b)
	r.e2e["lat_p50_us"] = float64(b.latency.percentile(50)) / 1e3
	r.info["lat_samples"] = float64(b.latency.count())
	if tail := supportedTail(b.latency.count()); tail > 0 {
		r.info["lat_tail_percentile"] = tail
		r.info["lat_tail_us"] = float64(b.latency.percentile(tail)) / 1e3
	}
	r.info["gen_late_p99_us"] = float64(b.late.percentile(99)) / 1e3
	if r.rec != nil {
		r.layer["gen.late_p99_us"] = float64(b.late.percentile(99)) / 1e3
		r.layer["lat_p99_us"] = float64(b.latency.percentile(99)) / 1e3
	}
	return b
}

// account books a phase's datagrams as operations and its losses and failed
// checks as failures.
func (r *run) account(p phaseResult) {
	r.ops(p.sent, p.lost()+p.bad)
	if p.bad > 0 {
		r.problem("%d datagrams failed the content or per-flow sequence check", p.bad)
	}
	if p.lost() > 0 {
		r.problem("%d of %d datagrams not delivered within %v of phase end", p.lost(), p.sent, drainWait)
	}
}

// fastPathCheck records what crossed the deployment's FlowVisor since before
// and fails the run if datagrams were punted to the controller. The routing
// daemons' own packets ride packet-in by design (a few hundred OSPF hellos
// and LSAs a second); datagrams must not.
func (r *run) fastPathCheck(st *site, before flowvisor.Counters, sent uint64) {
	now, ok := fvCounters(st)
	if r.rec == nil || !ok {
		return
	}
	r.layer["flowvisor.packet_ins"] = float64(now.PacketIns - before.PacketIns)
	r.layer["flowvisor.to_switch"] = float64(now.ToSwitch - before.ToSwitch)
	r.layer["flowvisor.to_controller"] = float64(now.ToController - before.ToController)
	if punted := now.PacketIns - before.PacketIns; punted*100 > sent {
		r.problem("%d packet-ins during the measured phases, over 1 %% of the datagrams: traffic left the fast path", punted)
	}
}

// bootMetrics fills the set-up and boot metrics from a run's boots.
func (r *run) bootMetrics(setups []float64, boots []bootTimes) {
	var configured, cpu []float64
	for _, b := range boots {
		configured = append(configured, b.configured.Seconds())
		cpu = append(cpu, b.cpu.Seconds())
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["configured_proto_s"] = median(configured)
	r.e2e["boot_cpu_s"] = median(cpu)
	r.info["boots"] = float64(len(boots))
}

// runFwd is fwd-64B and fwd-1500B: FatTree(4), hosts on the first and the
// last edge switch (five switch hops through rf-installed ECMP groups), 64
// UDP microflows of payloadLen bytes.
func runFwd(payloadLen int) func(*run) error {
	return func(r *run) error {
		edges := routeflow.FatTreeEdges(4)
		spec := deploySpec{topo: func() *routeflow.Topology { return routeflow.FatTree(4) }, src: edges[0], dst: edges[len(edges)-1]}
		flows := genUDPFlows(r.seed, fwdFlows, payloadLen)

		// Set-up, several times over: deploy, converge, warm the caches. The
		// last site stays up for the measured phases.
		var (
			st     *site
			tr     *traffic
			setups []float64
			boots  []bootTimes
		)
		for i := 0; i < setupRounds; i++ {
			if st != nil {
				st.close()
			}
			t0 := time.Now()
			var bt bootTimes
			var err error
			if st, bt, err = boot(spec, r.rec, i); err != nil {
				return err
			}
			tr = st.udpStream(flows, payloadLen)
			tr.closedLoop(warmUp)
			setups = append(setups, time.Since(t0).Seconds())
			boots = append(boots, bt)
		}
		defer st.close()
		r.bootMetrics(setups, boots)
		fv0, _ := fvCounters(st)
		a := r.closedPhase(tr, r.share(0.65))
		b := r.openPhase(tr, r.share(0.35))
		r.fastPathCheck(st, fv0, a.sent+b.sent)
		if r.rec != nil {
			r.siteReadouts(st, boots[len(boots)-1])
			r.rigs(payloadLen, st)
		}
		return nil
	}
}
