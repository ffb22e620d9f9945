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

			rep, err := Run(ctx, NewScenario(KindFigure,
				WithFigure(id), WithInstructions(instr), WithEngine(engine)))
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
		NewScenario(KindFigure, WithFigure("fig10"), WithInstructions(1200),
			WithEngine(sim.EngineTicked), WithWorkers(1)),
		NewScenario(KindFigure, WithFigure("fig10"), WithInstructions(1200),
			WithEngine(sim.EngineEvent), WithWorkers(3)),
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
// report's metrics equal a direct Evaluate of the lowered config, and
// the rendered text carries the classic CLI shape.
func TestRunScenarioMatchesEvaluate(t *testing.T) {
	sc := NewScenario(KindRun,
		WithDesign("drstrange"), WithApps("soplex"), WithRNGMbps(5120),
		WithInstructions(4000))
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Run == nil {
		t.Fatal("run report carries no metrics")
	}
	want := sim.Evaluate(sc.runConfig())
	if rep.Run.NonRNGSlowdown != want.NonRNGSlowdown ||
		rep.Run.RNGSlowdown != want.RNGSlowdown ||
		rep.Run.Unfairness != want.Unfairness ||
		rep.Run.EnergyJ != want.EnergyJ {
		t.Errorf("report metrics diverge from Evaluate:\n report:   %+v\n evaluate: %+v", rep.Run, want)
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
// same figures ServeCurves always has, in design order, plus the units
// footer in the rendered text.
func TestServeScenarioMatchesServeCurves(t *testing.T) {
	sc := NewScenario(KindServe,
		WithDesigns("oblivious", "drstrange"),
		WithLoads(320, 1280),
		WithWarmupTicks(2000), WithWindowTicks(10000))
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg, designs := sc.serveConfig()
	legacy := sim.ServeCurves(designs, cfg, sc.Normalized().Loads)
	if len(rep.Figures) != len(legacy) {
		t.Fatalf("figures = %d, want %d", len(rep.Figures), len(legacy))
	}
	for i := range legacy {
		if rep.Figures[i].Render() != legacy[i].Render() {
			t.Errorf("serve figure %d differs from ServeCurves", i)
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
	sc := NewScenario(KindServe,
		WithDesigns("oblivious", "drstrange"),
		WithLoads(160, 320, 640, 1280, 1920, 2560),
		WithWarmupTicks(0), WithWindowTicks(200_000_000)) // far beyond any test budget
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

// TestStreamDeliversProgressAndReport: the streaming form must emit a
// closing progress channel and an idempotent wait.
func TestStreamDeliversProgressAndReport(t *testing.T) {
	sc := NewScenario(KindServe,
		WithDesigns("drstrange"),
		WithLoads(640),
		WithWarmupTicks(1000), WithWindowTicks(5000))
	ch, wait := Stream(context.Background(), sc)
	var events []Progress
	for p := range ch {
		events = append(events, p)
	}
	rep, err := wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if rep == nil || len(rep.Figures) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if last.Stage != "done" {
		t.Errorf("last progress stage %q, want done", last.Stage)
	}
	// wait is idempotent.
	rep2, err2 := wait()
	if rep2 != rep || err2 != nil {
		t.Errorf("second wait() returned (%p, %v), want (%p, nil)", rep2, err2, rep)
	}
}

// TestStreamServeProgressPerDesign: a serve sweep reports one "design"
// event per design between "start" and "done", counting up to the
// design total whether the designs run in turn (one worker) or side by
// side.
func TestStreamServeProgressPerDesign(t *testing.T) {
	for _, workers := range []int{1, 0} {
		sc := NewScenario(KindServe,
			WithDesigns("oblivious", "drstrange"),
			WithLoads(640),
			WithWarmupTicks(1000), WithWindowTicks(5000),
			WithWorkers(workers))
		ch, wait := Stream(context.Background(), sc)
		var events []Progress
		for p := range ch {
			events = append(events, p)
		}
		if _, err := wait(); err != nil {
			t.Fatalf("workers=%d: wait: %v", workers, err)
		}
		if len(events) != 4 {
			t.Fatalf("workers=%d: events = %+v, want start, 2 designs, done", workers, events)
		}
		if e := events[0]; e.Stage != "start" || e.Total != 2 {
			t.Errorf("workers=%d: first event %+v, want start of 2", workers, e)
		}
		seen := map[string]bool{}
		for i, e := range events[1:3] {
			if e.Stage != "design" || e.Done != i+1 || e.Total != 2 {
				t.Errorf("workers=%d: event %d = %+v, want design %d of 2", workers, i+1, e, i+1)
			}
			seen[e.Item] = true
		}
		if !seen["RNG-Oblivious"] || !seen["DR-STRaNGe"] {
			t.Errorf("workers=%d: design events name %v, want RNG-Oblivious and DR-STRaNGe", workers, seen)
		}
		if e := events[3]; e.Stage != "done" {
			t.Errorf("workers=%d: last event %+v, want done", workers, e)
		}
	}
}

// TestStreamInvalidScenarioSurfacesError: validation failures arrive
// through wait, and the channel still closes.
func TestStreamInvalidScenarioSurfacesError(t *testing.T) {
	ch, wait := Stream(context.Background(), NewScenario(KindFigure, WithFigure("fig99")))
	for range ch {
	}
	if _, err := wait(); err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Fatalf("wait error = %v, want unknown experiment", err)
	}
}

// TestRunOversizedPopulationErrors: a valid scenario whose closed-loop
// population would exceed the client cap fails Run with an error
// instead of panicking a worker.
func TestRunOversizedPopulationErrors(t *testing.T) {
	sc := NewScenario(KindServe, WithDesigns("drstrange"), WithLoads(320), WithThinkTicks(1<<62))
	if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "closed-loop population") {
		t.Fatalf("Run error = %v, want the closed-loop population cap", err)
	}
}

// TestRunHugeLoadErrors: a finite offered load far past the streaming
// capacity fails Run with the backlog cap's error before anything
// simulates, where it used to run the process out of memory.
func TestRunHugeLoadErrors(t *testing.T) {
	sc := NewScenario(KindServe, WithDesigns("drstrange"), WithLoads(1e12),
		WithWarmupTicks(0), WithWindowTicks(2000))
	if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "backlog") {
		t.Fatalf("Run error = %v, want the backlog cap", err)
	}
}

// TestReportJSONRoundTrips: the serialized report re-parses and keeps
// the figure payload — the one-format contract downstream tooling
// relies on.
func TestReportJSONRoundTrips(t *testing.T) {
	rep, err := Run(context.Background(), NewScenario(KindFigure,
		WithFigure("table1"), WithInstructions(1000)))
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
