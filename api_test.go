package drstrange

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"drstrange/internal/sim"
)

// TestFigureScenarioByteIdenticalBothEngines is the tentpole's
// acceptance gate: figure output through the public path —
// Run(ctx, Scenario{Kind: figure, ...}) — must be byte-identical to
// the internal sim drivers' rendered output, under both simulation
// engines.
func TestFigureScenarioByteIdenticalBothEngines(t *testing.T) {
	const instr = 1200
	ctx := context.Background()
	for _, engine := range []string{sim.EngineEvent, sim.EngineTicked} {
		for _, id := range []string{"fig10", "table1"} {
			legacy := sim.RenderAll(sim.Experiments[id](ctx, sim.RunConfig{Instructions: instr, Engine: engine}))

			rep, err := Run(ctx, Scenario{Kind: KindFigure, Figure: id, Instructions: instr, Engine: engine})
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", engine, id, err)
			}
			if got := rep.Render(); got != legacy {
				t.Errorf("%s/%s: scenario output differs from the sim driver\n--- driver ---\n%s\n--- scenario ---\n%s",
					engine, id, legacy, got)
			}
		}
	}
}

// TestConcurrentRunsKeepTheirSettings runs two fig10 scenarios at once
// with different engines and worker counts. Each applies its settings
// to itself alone, so each must render exactly what it renders when run
// by itself.
func TestConcurrentRunsKeepTheirSettings(t *testing.T) {
	scenarios := []Scenario{
		{Kind: KindFigure, Figure: "fig10", Instructions: 1200, Engine: sim.EngineTicked, Workers: 1},
		{Kind: KindFigure, Figure: "fig10", Instructions: 1200, Engine: sim.EngineEvent, Workers: 3},
	}
	render := func(sc Scenario) (string, error) {
		rep, err := Run(context.Background(), sc)
		if err != nil {
			return "", err
		}
		return rep.Render(), nil
	}
	want := make([]string, len(scenarios))
	for i, sc := range scenarios {
		sim.ResetMemo()
		out, err := render(sc)
		if err != nil {
			t.Fatalf("sequential %s: %v", sc.Engine, err)
		}
		want[i] = out
	}
	sim.ResetMemo()
	got := make([]string, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i, sc := range scenarios {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = render(sc)
		}()
	}
	wg.Wait()
	for i, sc := range scenarios {
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", sc.Engine, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("concurrent %s/workers=%d run differs from its sequential output\n--- sequential ---\n%s\n--- concurrent ---\n%s",
				sc.Engine, sc.Workers, want[i], got[i])
		}
	}
}

// TestRunFractionalRNGRate runs a scenario whose RNG benchmark rate is
// below 1 Mb/s. The app's display name rounds that rate to "rng-0Mbps",
// so its alone-run baseline must be built from the mix's rate, or it
// runs an empty mix and panics.
func TestRunFractionalRNGRate(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"kind":"run","rng_mbps":0.5,"instructions":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Run == nil || rep.Run.RNGSlowdown <= 0 {
		t.Fatalf("run report lacks the RNG benchmark's slowdown: %+v", rep.Run)
	}
}

// TestRunVanishingRNGRate: an RNG benchmark rate far below 1 Mb/s
// issues no RNG request within the budget. Its instruction gap used to
// overflow an int and wrap to the shortest gap, the heaviest load.
func TestRunVanishingRNGRate(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"kind":"run","apps":["soplex"],"rng_mbps":1e-15,"instructions":3000}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rep.Run.Controller.RNGServed; got != 0 {
		t.Errorf("a 1e-15 Mb/s benchmark was served %d RNG requests, want 0", got)
	}
}

// TestFigure7TinyBudget pins the tiny-budget corner: at 10 instructions
// the synthetic RNG core may retire its budget before issuing a single
// RNG request, and the figure must still classify it as the RNG
// application (by its place in the mix) rather than look it up as an
// unknown workload profile.
func TestFigure7TinyBudget(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"kind":"figure","figure":"fig7","instructions":10}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), sc); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRunScenarioMatchesEvaluate checks the run kind end to end: the
// report's metrics equal a direct EvaluateCtx of the lowered config, and
// the rendered text carries the classic CLI shape.
func TestRunScenarioMatchesEvaluate(t *testing.T) {
	sc := Scenario{Kind: KindRun, Design: "drstrange", Apps: []string{"soplex"}, RNGMbps: 5120,
		Instructions: 4000}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Run == nil {
		t.Fatal("run report carries no metrics")
	}
	want, err := sim.EvaluateCtx(context.Background(), sc.runConfig())
	if err != nil {
		t.Fatalf("EvaluateCtx: %v", err)
	}
	if rep.Run.NonRNGSlowdown != want.NonRNGSlowdown ||
		rep.Run.RNGSlowdown != want.RNGSlowdown ||
		rep.Run.Unfairness != want.Unfairness ||
		rep.Run.EnergyJ != want.EnergyJ {
		t.Errorf("report metrics diverge from EvaluateCtx:\n report:   %+v\n evaluate: %+v", rep.Run, want)
	}
	text := rep.Render()
	for _, sub := range []string{
		"design: DR-STRaNGe   mechanism: D-RaNGe   mix: soplex",
		"non-RNG slowdown",
		"controller: reads=",
	} {
		if !strings.Contains(text, sub) {
			t.Errorf("rendered run report lacks %q:\n%s", sub, text)
		}
	}
}

// TestServeScenarioMatchesServeCurves: the serve kind must produce the
// same figures ServeCurvesCtx does, in design order, plus the units
// footer in the rendered text.
func TestServeScenarioMatchesServeCurves(t *testing.T) {
	sc := Scenario{Kind: KindServe, Designs: []string{"oblivious", "drstrange"}, Loads: []float64{320, 1280},
		WarmupTicks: ticks(2000), WindowTicks: 10000}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg, designs := sc.serveConfig()
	legacy, _, err := sim.ServeCurvesCtx(context.Background(), designs, cfg, sc.Normalized().Loads)
	if err != nil {
		t.Fatalf("ServeCurvesCtx: %v", err)
	}
	if len(rep.Figures) != len(legacy) {
		t.Fatalf("figures = %d, want %d", len(rep.Figures), len(legacy))
	}
	for i := range legacy {
		if rep.Figures[i].Render() != legacy[i].Render() {
			t.Errorf("serve figure %d differs from ServeCurvesCtx", i)
		}
	}
	if !strings.HasSuffix(rep.Render(), "achieved/offered in Mb/s of served random bits\n") {
		t.Errorf("serve report lacks the units footer:\n%s", rep.Render())
	}
}

// TestRunCancelledServeScenarioAborts is the public half of the abort
// acceptance criterion: cancelling the context handed to Run aborts a
// serve sweep early and surfaces ctx.Err(). The loads stay at or below
// capacity, where a window this long passes the backlog cap.
func TestRunCancelledServeScenarioAborts(t *testing.T) {
	sc := Scenario{Kind: KindServe, Designs: []string{"oblivious", "drstrange"},
		Loads:       []float64{160, 320, 640, 1280, 1920, 2560},
		WarmupTicks: ticks(0), WindowTicks: 200_000_000} // far beyond any test budget
	ctx, cancel := context.WithCancel(context.Background())

	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := Run(ctx, sc)
		done <- outcome{rep, err}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case got := <-done:
		if got.err != context.Canceled {
			t.Fatalf("Run error = %v, want context.Canceled", got.err)
		}
		if got.rep != nil {
			t.Fatal("cancelled Run returned a partial report")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled serve scenario did not abort within 30s")
	}
}

// TestRunInvalidScenarioSurfacesError: Run validates first, so an
// invalid scenario returns Validate's error and no report.
func TestRunInvalidScenarioSurfacesError(t *testing.T) {
	rep, err := Run(context.Background(), Scenario{Kind: KindFigure, Figure: "fig99"})
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Fatalf("Run error = %v, want unknown experiment", err)
	}
	if rep != nil {
		t.Fatal("an invalid scenario returned a report")
	}
}

// TestRunOversizedPopulationErrors: a valid scenario whose closed-loop
// population would exceed the client cap fails Run with an error
// instead of panicking a worker.
func TestRunOversizedPopulationErrors(t *testing.T) {
	sc := Scenario{Kind: KindServe, Designs: []string{"drstrange"}, Loads: []float64{320}, ThinkTicks: 1 << 62}
	if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "closed-loop population") {
		t.Fatalf("Run error = %v, want the closed-loop population cap", err)
	}
}

// TestRunHugeLoadErrors: a finite offered load far past the streaming
// capacity fails Run with the backlog cap's error before anything
// simulates, where it used to run the process out of memory.
func TestRunHugeLoadErrors(t *testing.T) {
	sc := Scenario{Kind: KindServe, Designs: []string{"drstrange"}, Loads: []float64{1e12},
		WarmupTicks: ticks(0), WindowTicks: 2000}
	if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "backlog") {
		t.Fatalf("Run error = %v, want the backlog cap", err)
	}
}

// TestRunPastHorizonErrors: a valid run scenario whose simulation
// outlives Run's horizon fails Run with an error instead of panicking.
// DR-STRaNGe's low-utilization fill stalls the RNG benchmark's requests
// while a 10^9-word buffer has room, so 1000 instructions outlast the
// 2M-tick horizon.
func TestRunPastHorizonErrors(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"kind":"run","rng_mbps":5120,"buffer_words":1000000000,"instructions":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), "run exceeded 2000000 ticks") {
		t.Fatalf("Run error = %v, want the run horizon", err)
	}
	if rep != nil {
		t.Fatal("a run past its horizon returned a report")
	}
}

// TestReportJSONRoundTrips: the serialized report re-parses and keeps
// the figure payload — the one-format contract downstream tooling
// relies on.
func TestReportJSONRoundTrips(t *testing.T) {
	rep, err := Run(context.Background(), Scenario{Kind: KindFigure, Figure: "table1", Instructions: 1000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Scenario.Kind != KindFigure || back.Scenario.Figure != "table1" {
		t.Errorf("scenario did not round-trip: %+v", back.Scenario)
	}
	if len(back.Figures) != len(rep.Figures) || len(back.Figures) == 0 {
		t.Fatalf("figures did not round-trip: %d vs %d", len(back.Figures), len(rep.Figures))
	}
	if back.Figures[0].ID != rep.Figures[0].ID || len(back.Figures[0].Series) != len(rep.Figures[0].Series) {
		t.Errorf("figure payload did not round-trip")
	}
}
