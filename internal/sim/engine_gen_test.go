//go:build !race

// The generated differential runs ten thousand simulations on one
// goroutine: a few seconds plain, well over a minute under the race
// detector, which has nothing to check here.

package sim

import (
	"reflect"
	"strings"
	"testing"

	"drstrange/internal/prng"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// TestEngineDifferentialGenerated draws closed-loop configurations from
// a seeded generator — 1–4 applications from every profile, every
// design, both mechanisms, an RNG benchmark rate from 0 to 10240 Mb/s,
// 1000–5000 instructions and a seed in 0–999 — and requires Run to
// return deeply equal results under the ticked and the event engine.
// Divergent configurations are rare: before the core's issue-slot fix
// (TestEngineDifferentialIssueSlotStall), 6 of these 10,000 differed,
// the first at case 2983.
func TestEngineDifferentialGenerated(t *testing.T) {
	const cases = 10_000
	profiles := workload.ProfileNames()
	mechs := []trng.Mechanism{trng.DRaNGe(), trng.QUACTRNG()}
	rates := []float64{0, 640, 1280, 2560, 5120, 10240}
	rng := prng.NewXoshiro256(2022)
	failures := 0
	for i := 0; i < cases; i++ {
		apps := make([]string, 1+rng.Intn(4))
		for j := range apps {
			apps[j] = profiles[rng.Intn(len(profiles))]
		}
		cfg := RunConfig{
			Design:       Design(rng.Intn(int(DesignDRStrangeNoLowUtil) + 1)),
			Mix:          workload.Mix{Name: strings.Join(apps, "+"), Apps: apps, RNGMbps: rates[rng.Intn(len(rates))]},
			Mech:         mechs[rng.Intn(len(mechs))],
			Instructions: int64(1000 + rng.Intn(4001)),
			Seed:         uint64(rng.Intn(1000)),
		}
		cfg.Engine = EngineTicked
		ticked := Run(cfg)
		cfg.Engine = EngineEvent
		event := Run(cfg)
		if !reflect.DeepEqual(ticked, event) {
			t.Errorf("case %d: engines diverge on %v/%s/%s at %d mb/s, %d instructions, seed %d\n ticked: %+v\n event:  %+v",
				i, cfg.Design, cfg.Mech.Name, cfg.Mix.Name, int(cfg.Mix.RNGMbps), cfg.Instructions, cfg.Seed, ticked.Ctrl, event.Ctrl)
			if failures++; failures == 5 {
				t.Fatal("stopping after 5 divergent cases")
			}
		}
	}
}
