// paneu-video reproduces the paper's demonstration programmatically: the
// 28-node pan-European topology boots cold while a video clip streams from
// Lisbon toward Stockholm; the program reports when the stream reaches the
// client, configuration time included.
package main

import (
	"fmt"
	"log"
	"os"

	"routeflow"
)

func main() {
	g := routeflow.PanEuropean()
	lisbon, _ := g.NodeByName("Lisbon")
	stockholm, _ := g.NodeByName("Stockholm")

	fmt.Printf("pan-European topology: %d switches, %d links, diameter %d hops\n",
		g.NumNodes(), g.NumLinks(), g.Diameter())
	fmt.Println("starting cold; streaming Lisbon -> Stockholm...")

	report, err := routeflow.Run(
		routeflow.DemoRun{Streams: [][2]int{{lisbon.ID, stockholm.ID}}},
		routeflow.WithTimeScale(100))
	if err != nil {
		log.Fatal(err)
	}
	report.Print(os.Stdout)
}
