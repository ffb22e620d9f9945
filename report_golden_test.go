package drstrange

import (
	"bytes"
	"context"
	"os"
	"testing"

	"drstrange/internal/sim"
)

// TestReportJSONGoldenByteIdenticalEngines pins Report.JSON byte for
// byte, under both engines, on the report shapes the text goldens do
// not cover: per-class stats (closed-loop overload), health and
// per-shard stats (degraded, 4 shards), figures (fig10), and the
// health fail path (one bias-ramp shard at 2x capacity, where most
// waiting requests fail at the quarantine deadline). The echoed
// scenario's engine is cleared before comparing, so one golden serves
// both engines.
func TestReportJSONGoldenByteIdenticalEngines(t *testing.T) {
	load := func(path string) Scenario {
		t.Helper()
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	cases := []struct {
		golden string
		sc     Scenario
	}{
		{"testdata/report_serve_closedloop.json", load("scenarios/serve_closedloop.json")},
		{"testdata/report_serve_degraded.json", load("scenarios/serve_degraded.json")},
		{"testdata/report_fig10.json", load("scenarios/fig10.json")},
		{"testdata/report_serve_failed.json", Scenario{
			Kind:        KindServe,
			Name:        "failed-requests",
			Designs:     []string{"drstrange"},
			Loads:       []float64{5120},
			Fault:       "bias-ramp",
			WarmupTicks: ticks(10_000),
			WindowTicks: 50_000,
			Seed:        3,
		}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{sim.EngineEvent, sim.EngineTicked} {
			s := c.sc
			s.Engine = engine
			rep, err := Run(context.Background(), s)
			if err != nil {
				t.Fatalf("%s %s: Run: %v", c.golden, engine, err)
			}
			rep.Scenario.Engine = ""
			got, err := rep.JSON()
			if err != nil {
				t.Fatalf("%s %s: JSON: %v", c.golden, engine, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: report JSON differs from the golden\n--- got ---\n%s\n--- want ---\n%s",
					engine, got, want)
			}
		}
	}
}
