// Idleness: visualizes the DRAM idle-period structure that makes the
// buffering mechanism work, and compares the two idleness predictors'
// accuracy on representative applications (bursty vs streaming).
package main

import (
	"context"
	"fmt"
	"strings"

	"drstrange/internal/sim"
	"drstrange/internal/workload"
)

func histogram(lengths []float64) {
	buckets := []struct {
		name string
		lo   float64
		hi   float64
	}{
		{"  <10 cycles", 0, 10},
		{" 10-39 (short)", 10, 40},
		{" 40-199 (long)", 40, 200},
		{"200-999", 200, 1000},
		{"  >=1000", 1000, 1e18},
	}
	for _, b := range buckets {
		n := 0
		for _, l := range lengths {
			if l >= b.lo && l < b.hi {
				n++
			}
		}
		frac := float64(n) / float64(len(lengths))
		fmt.Printf("  %-16s %5.1f%% %s\n", b.name, frac*100, strings.Repeat("#", int(frac*50)))
	}
}

func main() {
	instr := sim.DefaultInstructions() // DRSTRANGE_INSTR overrides (CI smoke shrinks it)
	base := sim.RunConfig{Instructions: instr}
	for _, app := range []string{"ycsb0", "libq"} {
		p := workload.MustByName(app)
		lengths := sim.IdleProfile(context.Background(), base, workload.Mix{Name: app, Apps: []string{app}})
		fmt.Printf("%s (MPKI %.1f, burstiness %.2f): %d idle periods\n", app, p.MPKI, p.Burstiness, len(lengths))
		histogram(lengths)
		fmt.Println()
	}

	fmt.Println("predictor accuracy when co-running with the 5 Gb/s RNG app:")
	fmt.Printf("%-10s %24s %24s\n", "app", "simple (2-bit counters)", "RL (Q-learning)")
	for _, app := range []string{"ycsb0", "soplex", "libq"} {
		mix := workload.Mix{Name: app, Apps: []string{app}, RNGMbps: 5120}
		s := sim.Evaluate(sim.RunConfig{Design: sim.DesignDRStrange, Mix: mix, Instructions: instr})
		r := sim.Evaluate(sim.RunConfig{Design: sim.DesignDRStrangeRL, Mix: mix, Instructions: instr})
		fmt.Printf("%-10s %23.1f%% %23.1f%%\n", app, s.PredictorAccuracy*100, r.PredictorAccuracy*100)
	}
	fmt.Println("\nthe paper reports ~80% accuracy for both predictors on two-core")
	fmt.Println("workloads (Figure 14), with the simple predictor far cheaper in area.")
}
