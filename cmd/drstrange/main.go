// Command drstrange runs one experiment scenario of the DR-STRaNGe
// system. The flags build a closed-loop "run" scenario (per-app and
// controller statistics for one design/mix); -scenario runs any JSON
// scenario file — run, serve, or figure — through the same public API,
// with every flag given on the command line overriding its field, and
// -json emits the machine-readable report.
//
// -cpuprofile and -memprofile capture pprof profiles of the run for
// performance diagnosis.
//
// Usage examples:
//
//	drstrange -apps soplex -rng 5120 -design drstrange
//	drstrange -apps lbm,mcf,libq -rng 5120 -design oblivious -instr 200000
//	drstrange -apps soplex -rng 5120 -design drstrange -mech quac
//	drstrange -scenario scenarios/fig10.json
//	drstrange -apps soplex -json
//	drstrange -apps mcf -cpuprofile cpu.pb -memprofile mem.pb
package main

import (
	"flag"
	"fmt"

	"drstrange"
	"drstrange/internal/cliflag"
	"drstrange/internal/sim"
	"drstrange/internal/workload"
)

func main() {
	apps := flag.String("apps", "soplex", "comma-separated non-RNG applications (see -listapps)")
	rng := flag.Float64("rng", 5120, "RNG benchmark required throughput in Mb/s (0 = none)")
	designName := flag.String("design", "drstrange", "system design: "+cliflag.DesignNamesFlagHelp())
	instr := flag.Int64("instr", sim.DefaultInstructions(), "per-core instruction budget")
	buffer := flag.Int("buffer", 0, "random number buffer entries (0 = design default)")
	listApps := flag.Bool("listapps", false, "list the application suite and exit")
	common := cliflag.Register("drstrange")
	flag.Parse()

	if *listApps {
		for _, p := range workload.Profiles() {
			fmt.Printf("%-14s %-10s MPKI=%-6.2f class=%s\n", p.Name, p.Suite, p.MPKI, p.Class())
		}
		return
	}

	sc := common.Scenario(drstrange.KindRun, map[string]drstrange.Option{
		"design": drstrange.WithDesign(*designName),
		"apps":   drstrange.WithApps(cliflag.SplitList(*apps)...),
		"rng":    drstrange.WithRNGMbps(*rng),
		"buffer": drstrange.WithBufferWords(*buffer),
		"instr":  drstrange.WithInstructions(*instr),
	})
	common.Execute(nil, sc)
}
