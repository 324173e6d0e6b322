// Command rfbench regenerates the paper's evaluation numbers.
//
//	rfbench -experiment fig3            # Fig. 3: auto vs manual config time
//	rfbench -experiment demo            # §3: pan-European video demo
//	rfbench -experiment multias         # inter-domain scaling sweep
//	rfbench -experiment fig3 -sizes 4,8,28 -scale 200
//	rfbench -experiment multias -replicas 4   # sharded RF-controller
//
// Reported durations are protocol time (the -scale factor compresses wall
// time without changing protocol behaviour). -scale and -replicas are
// routeflow.New's options, passed to routeflow.Run with the spec.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"routeflow"
)

func main() {
	experiment := flag.String("experiment", "fig3", "fig3 | demo | multias")
	sizes := flag.String("sizes", "4,8,12,16,20,24,28", "ring sizes for fig3")
	asCounts := flag.String("ascounts", "2,3,4", "AS counts for multias")
	asSize := flag.Int("assize", 3, "switches per AS for multias")
	scale := flag.Float64("scale", 100, "time compression factor")
	replicas := flag.Int("replicas", 1, "rf-controller replicas (>1 = sharded switch ownership)")
	server := flag.String("server", "Lisbon", "demo video server city")
	client := flag.String("client", "Stockholm", "demo video client city")
	flag.Parse()

	opts := []routeflow.Option{
		routeflow.WithTimeScale(*scale),
		routeflow.WithReplicas(*replicas),
	}

	var spec routeflow.RunSpec
	switch *experiment {
	case "fig3":
		fmt.Printf("Fig. 3 — RouteFlow configuration time, ring topologies (scale %gx)\n", *scale)
		spec = routeflow.Fig3Run{Sizes: parseInts(*sizes, 3, "ring size")}
	case "multias":
		fmt.Printf("Inter-domain scaling — ASRing(n, %d) cold-boot convergence (scale %gx)\n",
			*asSize, *scale)
		spec = routeflow.MultiASRun{ASCounts: parseInts(*asCounts, 2, "AS count"), ASSize: *asSize}
	case "demo":
		g := routeflow.PanEuropean()
		srv, ok := g.NodeByName(*server)
		if !ok {
			fatalf("unknown city %q", *server)
		}
		cli, ok := g.NodeByName(*client)
		if !ok {
			fatalf("unknown city %q", *client)
		}
		fmt.Printf("§3 demo — video %s → %s over the pan-European topology (scale %gx)\n",
			*server, *client, *scale)
		spec = routeflow.DemoRun{Streams: [][2]int{{srv.ID, cli.ID}}}
	default:
		fatalf("unknown experiment %q", *experiment)
	}

	report, err := routeflow.Run(spec, opts...)
	if err != nil {
		fatalf("%s: %v", *experiment, err)
	}
	report.Print(os.Stdout)
}

func parseInts(csv string, min int, what string) []int {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < min {
			fatalf("bad %s %q", what, s)
		}
		out = append(out, n)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rfbench: "+format+"\n", args...)
	os.Exit(1)
}
