package main

import (
	"fmt"
	"time"

	"routeflow"
)

// Shape of one faults-ring8 cycle.
const (
	faultReplicas  = 3
	faultRate      = 5000 // datagrams/s of the numbered stream
	faultFrameLen  = 256
	faultFlows     = 16
	faultBurst     = 1400 * time.Millisecond // closed loop before the stream: fourteen slices
	faultStreamLen = 2600 * time.Millisecond
	cutAfter       = 300 * time.Millisecond  // into the stream: cut link 1-2
	killAfter      = 1000 * time.Millisecond // into the stream: kill node 0's master
	faultTail      = 100                     // datagrams at the stream's end that must all arrive
)

// outage is the time from a fault to the due time of the last datagram lost
// in its window: the datagrams due in [from, until) are indices lo..hi-1 of
// a stream whose i-th datagram was due at base + i*interval. It returns the
// outage and how many datagrams of the window were lost; a window that lost
// nothing has outage 0.
func outage(delivered []bool, base, interval, from, until int64) (time.Duration, int) {
	lo := max(int((from-base+interval-1)/interval), 0)
	hi := min(int((until-base+interval-1)/interval), len(delivered))
	last, lost := -1, 0
	for i := lo; i < hi; i++ {
		if !delivered[i] {
			last = i
			lost++
		}
	}
	if last < 0 {
		return 0, 0
	}
	return time.Duration(base + int64(last)*interval - from), lost
}

// faultCycle is what one cycle measured.
type faultCycle struct {
	boot               bootTimes
	burst, stream      phaseResult   // the closed-loop burst before the faults, the numbered stream through them
	reroute, failover  time.Duration // protocol time
	lostReroute        int
	lostFailover       int
	handover, adoption time.Duration // protocol time; traced cycles only
	tailDelivered      bool
}

// runFaults is faults-ring8: Ring(8) with hosts at 0 and 3 (a unique
// three-hop shortest path) under a three-replica controller. Each cycle is a
// fresh deployment: converge, a closed-loop burst for the goodput figures,
// then an open-loop numbered stream during which link 1-2 is cut and, later,
// the replica mastering node 0 is killed. An
// operation is a cycle; it fails if the stream's last datagrams do not all
// arrive. Datagrams lost inside the two fault windows are the measurement.
func runFaults(r *run) error {
	spec := deploySpec{topo: func() *routeflow.Topology { return routeflow.Ring(8) }, src: 0, dst: 3, replicas: faultReplicas}
	payloadLen := faultFrameLen - 42
	flows := genUDPFlows(r.seed, faultFlows, payloadLen)
	cycles := max(int(r.seconds/(faultBurst+faultStreamLen).Seconds()), 2)

	var all []faultCycle
	for c := 0; c < cycles; c++ {
		fc, err := r.faultCycle(spec, flows, payloadLen, c)
		r.ops(1, 0)
		if err != nil {
			r.ops(0, 1)
			r.problem("cycle %d: %v", c, err)
			if r.failed > 1 {
				return err
			}
			continue
		}
		if !fc.tailDelivered {
			r.ops(0, 1)
			r.problem("cycle %d: the last %d datagrams of the stream were not all delivered", c, faultTail)
		}
		if fc.stream.bad > 0 {
			r.problem("cycle %d: %d datagrams failed the content check or arrived twice", c, fc.stream.bad)
		}
		r.account(fc.burst)
		all = append(all, fc)
	}
	if len(all) == 0 {
		return fmt.Errorf("no cycle completed")
	}

	var (
		setups, reroute, failover, handover, adoption, pps, cpuNs, late []float64
		lostReroute, lostFailover                                       int
		boots                                                           []bootTimes
	)
	for _, fc := range all {
		boots = append(boots, fc.boot)
		setups = append(setups, (fc.boot.assembleWall + fc.boot.bootWall).Seconds())
		reroute = append(reroute, float64(fc.reroute)/1e6)
		failover = append(failover, fc.failover.Seconds())
		handover = append(handover, fc.handover.Seconds())
		adoption = append(adoption, fc.adoption.Seconds())
		pps = append(pps, fc.burst.segPPS...)
		cpuNs = append(cpuNs, fc.burst.segCPUns...)
		late = append(late, float64(fc.stream.late.percentile(99))/1e3)
		lostReroute += fc.lostReroute
		lostFailover += fc.lostFailover
	}
	r.bootMetrics(setups, boots)
	// A ring boot converges after one OSPF hello round or after two, about
	// evenly: the mean of the cycles is steadier than their median.
	r.e2e["setup_s"] = mean(setups)
	r.e2e["reroute_outage_proto_ms"] = median(reroute)
	r.e2e["failover_outage_proto_s"] = median(failover)
	// Goodput and CPU per datagram come from the closed-loop burst every
	// cycle sends over the converged ring before its faults: medians over
	// the segments of all cycles.
	r.e2e["goodput_pps"] = median(pps)
	r.e2e["cpu_ns_per_pkt"] = median(cpuNs)
	r.info["cycles"] = float64(len(all))
	r.info["stream_lost_reroute"] = float64(lostReroute) / float64(len(all))
	r.info["stream_lost_failover"] = float64(lostFailover) / float64(len(all))
	r.info["gen_late_p99_us"] = median(late)
	if r.rec != nil {
		r.layer["stream.lost_reroute"] = float64(lostReroute) / float64(len(all))
		r.layer["stream.lost_failover"] = float64(lostFailover) / float64(len(all))
		r.layer["cluster.lease_handover_proto_s"] = median(handover)
		r.layer["rf.adopt_to_flows_proto_s"] = median(adoption)
		r.layer["gen.late_p99_us"] = median(late)
		if sum, whole := median(handover)+median(adoption), median(failover); sum < 0.8*whole || sum > 1.2*whole {
			r.problem("lease handover %.2f + adopt-to-flows %.2f protocol-s do not add up to the failover outage %.2f within 20%%",
				median(handover), median(adoption), whole)
		}
		r.rigs(payloadLen, nil)
	}
	return nil
}

// faultCycle runs one cycle on a fresh deployment.
func (r *run) faultCycle(spec deploySpec, flows *udpFlows, payloadLen, cycle int) (faultCycle, error) {
	var fc faultCycle
	st, bt, err := boot(spec, r.rec, cycle)
	if err != nil {
		return fc, err
	}
	defer st.close()
	fc.boot = bt
	if r.rec != nil && cycle == 0 {
		r.siteReadouts(st, bt)
	}
	link := -1
	for i, l := range st.topo.Links() {
		if (l.A == 1 && l.B == 2) || (l.A == 2 && l.B == 1) {
			link = i
		}
	}
	if link < 0 {
		return fc, fmt.Errorf("ring has no link 1-2")
	}

	tr := st.udpStream(flows, payloadLen)
	tr.unbounded = true
	tr.closedLoop(100 * time.Millisecond) // unchecked: the new microflows' first datagrams may take the slow path
	fc.burst = tr.closedLoop(faultBurst)
	// The warm-up sent a whole number of rounds over the flows, so datagram
	// i of the stream is flow i%faultFlows with sequence number first+i/faultFlows.
	n, first := int(faultRate*faultStreamLen.Seconds()), int(tr.seq[0])
	delivered := make([]bool, n)
	arrived := make([]int64, n)
	duplicates := 0
	tr.rx.reorderOK = true // a reroute may overtake datagrams still on the old path
	tr.rx.onAccept = func(flow int, seq uint32, at int64) {
		if i := (int(seq)-first)*faultFlows + flow; i >= 0 && i < n {
			if delivered[i] {
				duplicates++
			}
			delivered[i], arrived[i] = true, at
		}
	}

	// The two faults run on their own goroutine, at fixed offsets into the
	// stream; what they did and when is read back once it has ended.
	var log faultLog
	faults := make(chan struct{})
	go func() {
		defer close(faults)
		log = injectFaults(st, link, r.rec != nil)
	}()
	sp := r.rec.begin("stream", 0, cycle)
	fc.stream = tr.openLoop(faultRate, faultStreamLen)
	r.rec.end(sp)
	<-faults
	fc.stream.bad += uint64(duplicates)
	if log.err != nil {
		return fc, log.err
	}
	cutAt, killAt := log.cutAt, log.killAt

	s := fc.stream
	end := s.base + int64(n)*s.interval
	var out time.Duration
	out, fc.lostReroute = outage(delivered, s.base, s.interval, cutAt, killAt)
	fc.reroute = out * timeScale
	out, fc.lostFailover = outage(delivered, s.base, s.interval, killAt, end)
	fc.failover = out * timeScale
	fc.tailDelivered = true
	for _, ok := range delivered[n-faultTail:] {
		fc.tailDelivered = fc.tailDelivered && ok
	}
	if r.rec != nil {
		fc.handover, fc.adoption = r.recordFaults(cycle, sp, log, fc, delivered, arrived)
	}
	return fc, nil
}

// faultLog is when each fault was injected and, on traced cycles, when each
// observable milestone of the recovery was first seen (stamp clock; 0 = not
// seen).
type faultLog struct {
	cutAt, portView             int64 // link cut; discovery no longer lists the link
	killAt, mastered, flowsBack int64 // master killed; another replica masters src; src's switch has a route to the destination again
	err                         error
}

// injectFaults cuts link at cutAfter and kills the master of the source
// node at killAfter, both counted from now. With watch it polls the public
// read-outs once per millisecond for the recovery milestones in between.
func injectFaults(st *site, link int, watch bool) faultLog {
	var log faultLog
	start := nowNs()
	sleepUntil(start + int64(cutAfter))
	log.cutAt = nowNs()
	if log.err = st.d.SetLinkUp(link, false); log.err != nil {
		return log
	}
	if watch {
		links := st.topo.NumLinks()
		log.portView = pollUntil(start+int64(killAfter), func() bool { return len(st.d.Discovery().Links()) < links })
	}
	sleepUntil(start + int64(killAfter))
	killed := st.d.MasterOf(st.spec.src)
	log.killAt = nowNs()
	if log.err = st.d.KillReplica(killed); log.err != nil || !watch {
		return log
	}
	end := start + int64(faultStreamLen)
	log.mastered = pollUntil(end, func() bool { m := st.d.MasterOf(st.spec.src); return m >= 0 && m != killed })
	// The new master wipes the table once the switch has re-dialled it, then
	// replays as its fresh VM learns routes: the route the stream rides goes,
	// then comes back.
	sw, _ := st.d.Switch(st.spec.src)
	routed := func() bool {
		for _, fi := range sw.FlowTable() {
			if p := fi.Match.NwDstPrefix(); p.Bits() > 0 && p.Contains(st.dst.Addr()) {
				return true
			}
		}
		return false
	}
	if pollUntil(end, func() bool { return !routed() }) != 0 {
		log.flowsBack = pollUntil(end, routed)
	}
	return log
}

func sleepUntil(at int64) {
	for now := nowNs(); now < at; now = nowNs() {
		time.Sleep(time.Duration(at - now))
	}
}

// pollUntil checks cond once per millisecond and returns when it first held,
// or 0 if it had not by deadline (both on the stamp clock).
func pollUntil(deadline int64, cond func() bool) int64 {
	for now := nowNs(); now < deadline; now = nowNs() {
		if cond() {
			return now
		}
		time.Sleep(time.Millisecond)
	}
	return 0
}

// recordFaults writes a cycle's fault milestones as spans under the stream
// span and returns the two stages of the failover in protocol time.
func (r *run) recordFaults(cycle, parent int, log faultLog, fc faultCycle, delivered []bool, arrived []int64) (handover, adoption time.Duration) {
	s := fc.stream
	at := func(stamp int64) time.Time { return processStart.Add(time.Duration(stamp)) }
	// firstAfter is the arrival of the first datagram to get through after
	// the losses that follow from.
	firstAfter := func(from int64) int64 {
		seenLoss := false
		for i := max(int((from-s.base)/s.interval), 0); i < len(delivered); i++ {
			if !delivered[i] {
				seenLoss = true
			} else if seenLoss {
				return arrived[i]
			}
		}
		return from
	}
	cut := r.rec.interval("fault/link-cut", "", parent, cycle, at(log.cutAt), at(firstAfter(log.cutAt)))
	if log.portView != 0 {
		r.rec.interval("fault/link-cut/port-view-updated", "", cut, cycle, at(log.cutAt), at(log.portView))
		r.rec.interval("fault/link-cut/first-delivered", "", cut, cycle, at(log.portView), at(firstAfter(log.cutAt)))
	}
	kill := r.rec.interval("fault/master-kill", "", parent, cycle, at(log.killAt), at(firstAfter(log.killAt)))
	if log.mastered == 0 || log.flowsBack == 0 {
		r.problem("cycle %d: failover milestones not observed before the stream ended", cycle)
		return 0, 0
	}
	r.rec.interval("fault/master-kill/lease-handover", "", kill, cycle, at(log.killAt), at(log.mastered))
	r.rec.interval("fault/master-kill/adopt-to-flows", "", kill, cycle, at(log.mastered), at(log.flowsBack))
	r.rec.interval("fault/master-kill/first-delivered", "", kill, cycle, at(log.flowsBack), at(firstAfter(log.killAt)))
	return time.Duration(log.mastered-log.killAt) * timeScale, time.Duration(log.flowsBack-log.mastered) * timeScale
}
