package drstrange

import (
	"context"
	"os"
	"testing"

	"drstrange/internal/sim"
)

// TestServeGoldenByteIdenticalWithHealthMonitoring is the health
// subsystem's clean-path acceptance gate: turning monitoring on over a
// healthy entropy source must not change one byte of the serve output
// (testdata/serve_golden.txt — the same golden the monitoring-off path
// reproduces) and must record zero trips. Observation is allowed to
// cost time, never behavior.
func TestServeGoldenByteIdenticalWithHealthMonitoring(t *testing.T) {
	want, err := os.ReadFile("testdata/serve_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(KindServe,
		WithApps("mcf"),
		WithLoads(320, 1280, 2560, 5120),
		WithWarmupTicks(10_000),
		WithWindowTicks(50_000),
		WithSeed(3),
		WithHealth("on"),
	)
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Render(); got != string(want) {
		t.Errorf("health-on serve output differs from the monitoring-off golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	for _, ds := range rep.Serve {
		for _, pt := range ds.Points {
			h := pt.Health
			if h == nil {
				t.Fatalf("%s @%g: monitored point carries no health stats", ds.Design, pt.OfferedMbps)
			}
			if h.Trips != 0 || h.DowntimeTicks != 0 || h.FailedRequests != 0 || h.ReroutedRequests != 0 {
				t.Errorf("%s @%g: clean stream tripped: %+v", ds.Design, pt.OfferedMbps, h)
			}
			if h.Availability != 1 {
				t.Errorf("%s @%g: clean-stream availability %v, want 1", ds.Design, pt.OfferedMbps, h.Availability)
			}
		}
	}
}

// TestServeDegradedGoldenByteIdenticalEngines pins the
// degraded-mode output: the checked-in scenarios/serve_degraded.json
// (bias-ramp fault on a 4-shard jsq service) must render byte-identically
// to testdata/serve_degraded_golden.txt under both engines — trip ticks, recovery, rerouting, and the availability
// columns are part of the deterministic contract, not just the latencies.
func TestServeDegradedGoldenByteIdenticalEngines(t *testing.T) {
	want, err := os.ReadFile("testdata/serve_degraded_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("scenarios/serve_degraded.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseScenario(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{sim.EngineEvent, sim.EngineTicked} {
		s := sc
		s.Engine = engine
		rep, runErr := Run(context.Background(), s)
		if runErr != nil {
			t.Fatalf("%s: Run: %v", engine, runErr)
		}
		if got := rep.Render(); got != string(want) {
			t.Errorf("%s: degraded serve output differs from golden\n--- got ---\n%s\n--- want ---\n%s",
				engine, got, want)
		}
		for _, ds := range rep.Serve {
			for _, pt := range ds.Points {
				h := pt.Health
				if h == nil || h.Trips == 0 {
					t.Fatalf("%s %s @%g: bias-ramp fault produced no trips", engine, ds.Design, pt.OfferedMbps)
				}
				if h.Availability >= 1 || h.Nines >= 12 {
					t.Errorf("%s %s @%g: degraded window reports full availability: %+v",
						engine, ds.Design, pt.OfferedMbps, h)
				}
				tripped := false
				for _, shard := range pt.PerShard {
					if shard.Trips > 0 {
						tripped = true
						if shard.FirstTripTick < 0 {
							t.Errorf("%s %s @%g shard %d: trips without a first-trip tick",
								engine, ds.Design, pt.OfferedMbps, shard.Shard)
						}
					}
				}
				if !tripped {
					t.Errorf("%s %s @%g: aggregate trips but no shard reports one", engine, ds.Design, pt.OfferedMbps)
				}
			}
		}
	}
}
