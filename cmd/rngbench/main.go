// Command rngbench measures RNG request serving under open-loop load:
// simulated clients submit random-number requests at a configured
// aggregate rate (Poisson, bursty, or diurnal arrivals) against a
// chosen system design, and the tool reports the latency-vs-load
// curves — served throughput, p50/p95/p99/p999 request latency, and
// buffer hit rate — for each design side by side.
//
// This is the open-loop generalization of the paper's Figure 2 (which
// sweeps TRNG throughput under closed-loop traces) and a scenario the
// paper never plots: the tail latency of DR-STRaNGe's buffering
// against on-demand generation under contention.
//
// The flags build a "serve" scenario; -scenario runs any JSON scenario
// file — serve, run, or figure — through the same public API, with
// every flag given on the command line overriding its field, and
// -json emits the machine-readable report. -cpuprofile and -memprofile
// capture pprof profiles of the sweep (the heap profile is taken after
// a GC, so it shows the serve path's live O(outstanding) footprint).
//
// -shards serves the load on N independent DRAM channel shards behind
// a request router (-router). A comma-separated -shards list sweeps the
// topology — one report per shard count, same loads — which is how the
// capacity story past the single-channel ~2.56 Gb/s ceiling is plotted.
//
// -health enables online entropy health monitoring (continuous
// SP 800-90B-style tests per shard, with trip/quarantine/availability
// accounting in the report), and -fault schedules a deterministic
// entropy degradation (bias-ramp, stuck-bits, burst) to exercise it; a
// -fault implies -health on.
//
// -warm on forks every offered-load point from one warmed, snapshotted
// system image (checkpointed warm starts: the warmup is paid once per
// configuration instead of once per point), and -checkpoint N
// snapshots and restores the running point every N ticks — periodic
// checkpoint/resume whose output is byte-identical to an uninterrupted
// run.
//
// -think T switches the sweep from open-loop arrivals to a closed-loop
// client population: each client submits one request, waits for it to
// complete, thinks for ~T ticks, and submits again; failed or shed
// requests retry with capped exponential backoff. -classes tags
// requests with priority/deadline request classes (cycled round-robin
// across submissions) and -admission picks the server-side load-
// shedding policy when a shard's entropy buffer runs dry or its queue
// grows past bound — together they are the overload-robustness story:
// keygen holds its deadline SLO at 2x capacity while bulk absorbs the
// shedding.
//
// Usage examples:
//
//	rngbench
//	rngbench -designs oblivious,drstrange -loads 320,640,1280,2560
//	rngbench -arrival bursty -burst 0.3 -apps soplex,mcf
//	rngbench -mech quac -bytes 32 -window 200000
//	rngbench -scenario scenarios/serve-sweep.json -json
//	rngbench -loads 5120 -window 1000000 -cpuprofile cpu.pb -memprofile mem.pb
//	rngbench -designs drstrange -loads 2560,5120 -shards 1,4,16 -router jsq
//	rngbench -designs drstrange -loads 1280 -shards 4 -router jsq -fault bias-ramp
//	rngbench -warm on -loads 320,640,1280,2560
//	rngbench -loads 2560 -window 1000000 -checkpoint 100000
//	rngbench -think 1000 -classes keygen,bulk -admission threshold-by-depth -loads 2560,5120
package main

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"drstrange"
	"drstrange/internal/cliflag"
	"drstrange/internal/workload"
)

func main() {
	designsFlag := flag.String("designs", "oblivious,drstrange",
		"comma-separated system designs to compare: "+cliflag.DesignNamesFlagHelp())
	loadsFlag := flag.String("loads", "160,320,640,1280,2560,3840",
		"comma-separated offered loads in Mb/s of requested random bits")
	apps := flag.String("apps", "", "comma-separated background applications sharing memory (empty = dedicated RNG system)")
	arrival := flag.String("arrival", workload.ArrivalPoisson,
		"arrival process: "+strings.Join(workload.ArrivalNames(), "|"))
	burst := flag.Float64("burst", 0.25, "burstiness of the bursty arrival process (0..0.32)")
	clients := flag.Int("clients", 0,
		"simulated request clients, at most 65536 (0 = 8)")
	think := flag.Int64("think", 0,
		"closed-loop think time in ticks: each client waits for its request, thinks, then submits again; failed or shed requests retry with capped exponential backoff (0 = open-loop arrivals)")
	classesFlag := flag.String("classes", "",
		"comma-separated request classes cycled across requests: "+strings.Join(drstrange.ClassNames(), "|")+" (empty = unclassed)")
	admission := flag.String("admission", "",
		"admission policy when a shard overloads: "+strings.Join(drstrange.AdmissionNames(), "|")+" (default none)")
	bytesPer := flag.Int("bytes", 8, "bytes of randomness per request, at most 65536")
	warmup := flag.Int64("warmup", 20000, "warmup ticks before measurement (0 = measure from cold start)")
	window := flag.Int64("window", 100000, "measurement window in memory ticks (1 tick = 5 ns)")
	seed := flag.Uint64("seed", 0, "experiment seed")
	shardsFlag := flag.String("shards", "",
		"channel shard count (default 1); a comma-separated list sweeps the topology, one report per count")
	router := flag.String("router", "",
		"request router across shards: "+strings.Join(drstrange.RouterNames(), "|")+" (default round-robin)")
	health := flag.String("health", "",
		"online entropy health monitoring: on|off (default off; a -fault implies on)")
	fault := flag.String("fault", "",
		"injected entropy fault profile: "+strings.Join(drstrange.FaultNames(), "|")+" (default none)")
	warm := flag.String("warm", "",
		"checkpointed warm starts: on|off — fork every load point from one warmed system image instead of re-running the warmup (default off)")
	checkpoint := flag.Int64("checkpoint", 0,
		"snapshot/restore the running point every N ticks (periodic checkpoint/resume; output is byte-identical, 0 = off)")
	common := cliflag.Register("rngbench")
	flag.Parse()

	designs := cliflag.SplitList(*designsFlag)
	if len(designs) == 0 {
		common.Fatal(errors.New("no designs selected"))
	}
	var loads []float64
	for _, s := range cliflag.SplitList(*loadsFlag) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			common.Fatal(fmt.Errorf("bad load %q: want a positive Mb/s value", s))
		}
		loads = append(loads, v)
	}
	if len(loads) == 0 {
		common.Fatal(errors.New("no offered loads"))
	}
	var shardCounts []int
	for _, s := range cliflag.SplitList(*shardsFlag) {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			common.Fatal(fmt.Errorf("bad shard count %q: want a positive integer", s))
		}
		shardCounts = append(shardCounts, n)
	}

	// Every flag sets one scenario field; with -scenario only the flags
	// given on the command line override the file's fields.
	sc := common.Scenario(drstrange.KindServe, map[string]func(*drstrange.Scenario){
		"designs":    func(s *drstrange.Scenario) { s.Designs = designs },
		"loads":      func(s *drstrange.Scenario) { s.Loads = loads },
		"apps":       func(s *drstrange.Scenario) { s.Apps = cliflag.SplitList(*apps) },
		"arrival":    func(s *drstrange.Scenario) { s.Arrival = *arrival },
		"burst":      func(s *drstrange.Scenario) { s.Burstiness = *burst },
		"clients":    func(s *drstrange.Scenario) { s.Clients = *clients },
		"think":      func(s *drstrange.Scenario) { s.ThinkTicks = *think },
		"classes":    func(s *drstrange.Scenario) { s.Classes = cliflag.SplitList(*classesFlag) },
		"admission":  func(s *drstrange.Scenario) { s.Admission = *admission },
		"bytes":      func(s *drstrange.Scenario) { s.RequestBytes = *bytesPer },
		"warmup":     func(s *drstrange.Scenario) { s.WarmupTicks = warmup },
		"window":     func(s *drstrange.Scenario) { s.WindowTicks = *window },
		"seed":       func(s *drstrange.Scenario) { s.Seed = *seed },
		"router":     func(s *drstrange.Scenario) { s.Router = *router },
		"health":     func(s *drstrange.Scenario) { s.Health = *health },
		"fault":      func(s *drstrange.Scenario) { s.Fault = *fault },
		"warm":       func(s *drstrange.Scenario) { s.Warm = *warm },
		"checkpoint": func(s *drstrange.Scenario) { s.Checkpoint = *checkpoint },
		"shards": func(s *drstrange.Scenario) {
			if len(shardCounts) == 1 {
				s.Shards = shardCounts[0]
			}
		},
	})
	if len(shardCounts) <= 1 {
		common.Execute(nil, sc)
		return
	}
	// A -shards list sweeps the topology: the same scenario once per
	// shard count, each report under its own header.
	sweep := make([]drstrange.Scenario, len(shardCounts))
	for i, n := range shardCounts {
		sweep[i] = sc
		sweep[i].Shards = n
	}
	common.Execute(func(s drstrange.Scenario) string { return fmt.Sprintf("shards=%d", s.Shards) }, sweep...)
}
