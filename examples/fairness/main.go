// Fairness: the paper's headline experiment in miniature. One
// memory-intensive application shares the machine with an RNG
// application demanding 5 Gb/s of true random numbers. The
// RNG-oblivious baseline slows the regular application dramatically
// and unfairly; DR-STRaNGe recovers performance for both.
package main

import (
	"context"
	"fmt"
	"log"

	"drstrange"
)

func main() {
	// The per-core instruction budget is left unset, so each run takes
	// the default of 100000 instructions.
	fmt.Println("workload: soplex + synthetic RNG app (5.12 Gb/s demand)")
	fmt.Println()
	fmt.Printf("%-28s %10s %10s %10s %10s\n", "design", "nonRNG sd", "RNG sd", "unfairness", "serve rate")
	for _, design := range []string{"oblivious", "bliss", "rngaware", "greedy", "drstrange"} {
		rep, err := drstrange.Run(context.Background(), drstrange.Scenario{
			Kind:    drstrange.KindRun,
			Design:  design,
			Apps:    []string{"soplex"},
			RNGMbps: 5120,
		})
		if err != nil {
			log.Fatal(err)
		}
		m := rep.Run
		fmt.Printf("%-28s %10.3f %10.3f %10.3f %10.3f\n",
			m.Design, m.NonRNGSlowdown, m.RNGSlowdown, m.Unfairness, m.BufferServeRate)
	}
	fmt.Println("\nslowdowns are normalized to each application running alone on the")
	fmt.Println("baseline system; unfairness is max/min memory-related slowdown.")
}
