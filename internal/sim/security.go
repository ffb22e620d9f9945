package sim

import (
	"context"
	"fmt"
	"math"

	"drstrange/internal/metrics"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// Security analysis of Section 6: the random number buffer is a timing
// side channel — an attacker timing its own RNG requests can infer
// whether another application is draining the buffer — and the same
// property supports a covert channel. The paper proposes partitioning
// the buffer across applications as a countermeasure. This experiment
// measures the channel and the countermeasure.

// secWarmTicks is the buffer warm-up every probe experiment runs before
// probing: idle ticks for the fill machinery to fill the buffer.
const secWarmTicks = 2000

// newProber builds the two-party probe system on base's engine,
// unwarmed: a core-less DR-STRaNGe System (simple buffering, so every
// idle period fills) whose client 0 is the victim and client 1 the
// attacker. With partitioned set the buffer is split between the two,
// the countermeasure PartitionCost prices.
func newProber(base RunConfig, partitioned bool, health trng.HealthConfig) *wordPort {
	cfg := RunConfig{Design: DesignDRStrangeNoPred, Clients: 2, Health: health, Engine: base.Engine}
	if partitioned {
		cfg = partitionBuffer(cfg)
	}
	return newWordPort(cfg)
}

// missRate measures the attacker's view over trials probes, with the
// victim either silent or draining the buffer between probes: the
// fraction of probes not served from the buffer.
func (p *wordPort) missRate(trials int, victimActive bool) float64 {
	misses := 0
	for i := 0; i < trials; i++ {
		// Let the system idle briefly (fills may occur).
		p.idle(30)
		if victimActive {
			// The victim drains aggressively (more requests than the
			// whole buffer holds), as an RNG-intensive application
			// would.
			for j := 0; j < 24; j++ {
				p.request(0)
			}
		}
		if !p.request(1) {
			misses++
		}
	}
	return float64(misses) / float64(trials)
}

// channel probes one phase, victim silent then active, and returns the
// figure row: both miss rates, the attacker's advantage
// |missRate(active) - missRate(silent)|, and the capacity of the covert
// channel a sender modulating "drain / don't drain" per window gets.
func (p *wordPort) channel(trials int) []float64 {
	idle := p.missRate(trials, false)
	active := p.missRate(trials, true)
	adv := math.Abs(active - idle)
	return []float64{idle, active, adv, bscCapacity(adv)}
}

// bscCapacity is the binary symmetric channel capacity (bits per probe
// window) of a covert channel with distinguishing advantage adv.
func bscCapacity(adv float64) float64 {
	errP := (1 - adv) / 2
	if errP <= 0 || errP >= 1 {
		return 1
	}
	return 1 + errP*math.Log2(errP) + (1-errP)*math.Log2(1-errP)
}

// SecurityAnalysis quantifies the timing side channel and the
// partitioning countermeasure on base's engine, probing over a warm
// buffer; base.Instructions sets the probe count.
func SecurityAnalysis(base RunConfig) []Figure {
	trials := min(max(int(base.Instructions/500), 50), 2000)
	f := Figure{
		ID:     "Section6",
		Title:  "Random number buffer timing side channel and partitioning countermeasure",
		Labels: []string{"miss idle", "miss active", "advantage", "bits/window"},
	}
	for _, part := range []bool{false, true} {
		p := newProber(base, part, trng.HealthConfig{})
		p.idle(secWarmTicks)
		name := "shared buffer"
		if part {
			name = "partitioned buffer"
		}
		f.Series = append(f.Series, Series{Name: name, Values: p.channel(trials)})
	}
	f.Notes = append(f.Notes,
		"paper (Section 6): the buffer leaks whether another application is requesting random numbers;",
		"partitioning the buffer across threads closes the channel at small performance cost")
	return []Figure{f}
}

// PartitionCost measures the countermeasure's performance cost the
// paper predicts to be small: DR-STRaNGe with a shared vs a
// partitioned buffer on representative dual-core workloads.
func PartitionCost(ctx context.Context, base RunConfig) []Figure {
	apps := []string{"ycsb0", "soplex", "lbm", "libq"}
	f := Figure{
		ID:     "Section6-cost",
		Title:  "Performance cost of buffer partitioning (DR-STRaNGe, 5.12 Gb/s RNG)",
		Labels: []string{"non-RNG slowdown", "RNG slowdown"},
	}
	for _, part := range []bool{false, true} {
		cfgs := make([]RunConfig, len(apps))
		for i, app := range apps {
			cfgs[i] = base.with(DesignDRStrange, twoCoreMix(app, 5120))
			if part {
				cfgs[i] = partitionBuffer(cfgs[i])
			}
		}
		var nr, rs []float64
		for _, w := range evalAllCtx(ctx, cfgs) {
			nr = append(nr, w.NonRNGSlowdown)
			rs = append(rs, w.RNGSlowdown)
		}
		name := "shared buffer"
		if part {
			name = "partitioned buffer"
		}
		f.Series = append(f.Series, Series{Name: name, Values: []float64{
			metrics.Mean(nr), metrics.Mean(rs),
		}})
	}
	return []Figure{f}
}

// partitionBuffer applies the Section 6 countermeasure to cfg: the
// 16-word random number buffer split evenly across the controller's
// cores, injection clients included.
func partitionBuffer(cfg RunConfig) RunConfig {
	cfg.partitioned = true
	return cfg
}

func twoCoreMix(app string, mbps float64) workload.Mix {
	return workload.Mix{Name: fmt.Sprintf("%s+rng%d", app, int(mbps)), Apps: []string{app}, RNGMbps: mbps}
}
