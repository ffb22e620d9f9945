// Openloop: RNG request serving under offered load. Instead of
// replaying instruction traces to completion (the paper's closed-loop
// methodology), simulated clients submit random-number requests at a
// fixed aggregate rate through the steppable System core's injection
// port, and we watch the latency distribution — not just the mean —
// as the offered load climbs toward the TRNG's capacity.
//
// The punchline the paper's figures never plot: DR-STRaNGe's random
// number buffer turns the p99 request latency at low-to-mid load into
// an SRAM access (10 ns) where the RNG-oblivious baseline pays the
// full on-demand generation path (~20x more), while both collapse to
// queueing-dominated latencies past saturation.
package main

import (
	"context"
	"fmt"
	"log"

	"drstrange"
)

func main() {
	// One memory-intensive application contends for the channels while
	// the clients demand random numbers.
	warmup := int64(15_000)
	sc := drstrange.Scenario{
		Kind:        drstrange.KindServe,
		Designs:     []string{"oblivious", "drstrange"},
		Apps:        []string{"mcf"},
		Loads:       []float64{320, 640, 1280, 2560},
		Arrival:     "poisson",
		WarmupTicks: &warmup,
		WindowTicks: 60_000,
	}
	rep, err := drstrange.Run(context.Background(), sc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("open-loop serving: Poisson arrivals of 8-byte RNG requests, mcf running in the background")
	fmt.Println("D-RaNGe aggregate capacity on 4 channels: 2560 Mb/s; latencies include queueing")
	fmt.Println()
	fmt.Print(rep.Render())
}
