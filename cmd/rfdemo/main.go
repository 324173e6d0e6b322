// Command rfdemo runs the paper's demonstration interactively: the 28-node
// pan-European topology boots cold, a video clip streams from a server city
// to a client city, and the GUI shows each switch turning from red to green
// as the RPC server configures it. Optional -http serves the dashboard to a
// browser. The run itself is routeflow.Run(DemoRun), the same experiment
// rfbench -experiment demo reports on.
//
//	rfdemo                       # terminal dashboard, 50x compressed time
//	rfdemo -scale 1              # real protocol time (~the paper's 4 min)
//	rfdemo -replicas 3           # distributed RF-controller, 3 replicas
//	rfdemo -http :8080           # also serve the GUI on http://localhost:8080
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"routeflow"
)

func main() {
	scale := flag.Float64("scale", 50, "time compression factor (1 = real time)")
	server := flag.String("server", "Lisbon", "video server city")
	client := flag.String("client", "Stockholm", "video client city")
	replicas := flag.Int("replicas", 1, "rf-controller replicas (>1 = distributed control)")
	httpAddr := flag.String("http", "", "also serve the dashboard on this address")
	flag.Parse()

	g := routeflow.PanEuropean()
	srv, ok := g.NodeByName(*server)
	if !ok {
		fatalf("unknown city %q", *server)
	}
	cli, ok := g.NodeByName(*client)
	if !ok {
		fatalf("unknown city %q", *client)
	}

	dash := routeflow.NewDashboard(g)
	if *httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(*httpAddr, dash); err != nil {
				fmt.Fprintf(os.Stderr, "rfdemo: http: %v\n", err)
			}
		}()
		fmt.Printf("dashboard: http://%s/\n", *httpAddr)
	}

	fmt.Printf("streaming video %s → %s; starting cold network of %d switches...\n\n",
		*server, *client, g.NumNodes())
	clk := routeflow.ScaledClock(*scale)
	start := clk.Now()
	type outcome struct {
		report *routeflow.RunReport
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		report, err := routeflow.Run(routeflow.DemoRun{Streams: [][2]int{{srv.ID, cli.ID}}},
			routeflow.WithClock(clk),
			routeflow.WithReplicas(*replicas),
			routeflow.WithOnStatus(dash.Update),
		)
		done <- outcome{report, err}
	}()

	// Render the dashboard while the system configures itself.
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			fmt.Print("\x1b[H\x1b[2J") // clear terminal
			fmt.Print(dash.RenderANSI())
			fmt.Printf("\nprotocol time elapsed: %v\n", clk.Since(start).Round(time.Second))
		case out := <-done:
			fmt.Print("\x1b[H\x1b[2J")
			fmt.Print(dash.RenderANSI())
			if out.err != nil {
				fatalf("%v", out.err)
			}
			fmt.Println()
			out.report.Print(os.Stdout)
			fmt.Printf("\n*** video reached %s after %v of protocol time (paper: ~4 min) ***\n",
				*client, out.report.Demo.Streams[0].FirstVideo.Round(time.Second))
			return
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rfdemo: "+format+"\n", args...)
	os.Exit(1)
}
