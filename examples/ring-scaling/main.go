// ring-scaling regenerates a compact version of the paper's Fig. 3: the
// time to configure RouteFlow automatically versus manually as the ring
// grows. Run cmd/rfbench for the full sweep.
package main

import (
	"log"
	"os"

	"routeflow"
)

func main() {
	report, err := routeflow.Run(routeflow.Fig3Run{Sizes: []int{4, 8, 12}},
		routeflow.WithTimeScale(200))
	if err != nil {
		log.Fatal(err)
	}
	report.Print(os.Stdout)
}
