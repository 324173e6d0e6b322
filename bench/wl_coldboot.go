package main

import (
	"fmt"
	"time"

	"routeflow"
)

// runColdboot is coldboot-paneu28, the paper's §3 experiment: the 28-node
// pan-European topology boots cold while a video streams from Lisbon to
// Stockholm, again and again; the boot figures are medians over the boots.
// An operation is a boot, failed on a timeout or a failed check. The last
// network stays up for a short host-to-host traffic epilogue, so the run
// also reports what the paper's network forwards once it is configured.
func runColdboot(r *run) error {
	g := routeflow.PanEuropean()
	lisbon, ok1 := g.NodeByName("Lisbon")
	stockholm, ok2 := g.NodeByName("Stockholm")
	if !ok1 || !ok2 {
		return fmt.Errorf("pan-European topology lacks Lisbon or Stockholm")
	}
	spec := deploySpec{topo: routeflow.PanEuropean, src: lisbon.ID, dst: stockholm.ID}
	flows := genUDPFlows(r.seed, fwdFlows, 18)

	// Set-up: one boot that is thrown away. The first boot of a process pays
	// for cold caches and a growing heap, which no later boot does.
	t0 := time.Now()
	warm, _, err := boot(spec, nil, -1)
	if err != nil {
		return fmt.Errorf("warm-up boot: %w", err)
	}
	warm.close()
	setup := time.Since(t0).Seconds()

	var (
		st         *site
		boots      []bootTimes
		firstFrame []float64
	)
	budget, start := r.share(0.6), time.Now()
	for cycle := 0; len(boots) < 3 || time.Since(start) < budget; cycle++ {
		if st != nil {
			st.close()
		}
		var bt bootTimes
		st, bt, err = boot(spec, r.rec, cycle)
		r.ops(1, 0)
		if err != nil {
			r.ops(0, 1)
			r.problem("boot %d: %v", cycle, err)
			if r.failed > 2 {
				return err
			}
			continue
		}
		boots = append(boots, bt)
		firstFrame = append(firstFrame, bt.firstFrame.Seconds())
	}
	if st == nil {
		return fmt.Errorf("the last boot failed; no network to run the traffic epilogue on")
	}
	defer st.close()
	r.bootMetrics([]float64{setup}, boots)
	// Time to first frame is two-valued: the adjacencies on the path form
	// after one OSPF hello round or after two, ten protocol-seconds apart and
	// about evenly. The median of a handful of boots flips between the two
	// modes; their mean moves with the mix.
	r.e2e["first_frame_proto_s"] = mean(firstFrame)

	// Epilogue: what the paper's network forwards once it is configured.
	tr := st.udpStream(flows, 18)
	tr.closedLoop(warmUp / 2)
	fv0, _ := fvCounters(st)
	a := r.closedPhase(tr, r.share(0.4))
	r.fastPathCheck(st, fv0, a.sent)
	if r.rec != nil {
		r.siteReadouts(st, boots[len(boots)-1])
		r.rigs(18, st)
	}
	return nil
}
