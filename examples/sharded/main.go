// Sharded: RNG serving capacity past the single-channel ceiling. One
// DRAM channel group running D-RaNGe tops out at 2.56 Gb/s of random
// bits, so an open-loop demand of 5.12 Gb/s collapses a single-shard
// system into queueing: achieved throughput pins at capacity and the
// p99 request latency explodes to hundreds of microseconds. Splitting
// the service across independent channel shards behind a request
// router moves the knee: 4 shards absorb the same demand with p99 back
// at buffer-hit latencies.
//
// This is the capacity story the paper's single-channel-group figures
// stop short of: DR-STRaNGe's buffering fixes the latency *profile*,
// sharding fixes the *ceiling*, and the two compose.
package main

import (
	"context"
	"fmt"
	"log"

	"drstrange"
)

func main() {
	fmt.Println("open-loop serving across channel shards: Poisson arrivals, mcf in the background on every shard")
	fmt.Println("single-shard D-RaNGe capacity: 2560 Mb/s; join-shortest-queue routing across shards")
	fmt.Println()
	warmup := int64(5_000)
	for _, shards := range []int{1, 4, 16} {
		rep, err := drstrange.Run(context.Background(), drstrange.Scenario{
			Kind:        drstrange.KindServe,
			Designs:     []string{"drstrange"},
			Apps:        []string{"mcf"},
			Loads:       []float64{1280, 2560, 5120},
			Arrival:     "poisson",
			WarmupTicks: &warmup,
			WindowTicks: 20_000,
			Shards:      shards,
			Router:      "jsq",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("==== shards=%d ====\n", shards)
		fmt.Print(rep.Render())
	}
}
