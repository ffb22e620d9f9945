// Quickstart: obtain true random bytes through the full simulated
// DR-STRaNGe stack — application interface (getrandom-style syscall) ->
// memory controller (RNG-aware scheduling + random number buffer) ->
// DRAM TRNG (D-RaNGe over a simulated cell array).
package main

import (
	"fmt"

	"drstrange/internal/core"
	"drstrange/internal/sim"
	"drstrange/internal/trng"
)

func main() {
	// A DR-STRaNGe system with no other applications running.
	system := sim.NewInteractive(sim.DesignDRStrange, nil, 42)
	syscall := core.NewSyscall(system)

	// Let the idle machine fill its random number buffer first, as the
	// buffering mechanism would after boot.
	system.Idle(500)

	// getrandom(): fill a 64-byte buffer.
	buf := make([]byte, 64)
	n, latency := syscall.GetRandom(buf)
	fmt.Printf("getrandom: %d bytes in %d memory cycles (%.0f ns)\n",
		n, latency, float64(latency)*5)
	fmt.Printf("bytes: %x\n\n", buf)

	// Warm (buffered) vs cold (on-demand) service latency.
	for i := 0; i < 4; i++ {
		_, l := syscall.Uint64()
		fmt.Printf("word %d: %3d cycles (buffer hits so far: %d)\n", i, l, system.Stats().RNGFromBuffer)
	}

	// Quality check the stream with the NIST-style battery.
	words := make([]uint64, 2048)
	for i := range words {
		words[i], _ = syscall.Uint64()
	}
	fmt.Println("\nrandomness quality (NIST-style battery):")
	for _, r := range trng.RunAll(words) {
		status := "PASS"
		if !r.Passed {
			status = "FAIL"
		}
		fmt.Printf("  %-20s p=%.4f  %s\n", r.Name, r.Score, status)
	}
	fmt.Printf("\n%s\n", syscall)
}
