package drstrange

import (
	"context"
	"sync"

	"drstrange/internal/sim"
)

// Progress is one coarse-grained progress event of a streaming run:
// which stage the scenario is in and how much of its unit of work —
// experiment drivers for figure scenarios, designs for serve sweeps,
// the single evaluation for run scenarios — has completed.
type Progress struct {
	// Stage is "start", "experiment", "evaluate", "design", or "done".
	Stage string `json:"stage"`
	// Item names the unit just started/finished (experiment id, design
	// name, mix name).
	Item string `json:"item,omitempty"`
	// Done and Total count completed units of the current stage.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Run validates the scenario, executes it, and returns the report.
//
// Cancellation is cooperative and prompt: cancelling ctx stops the
// worker pool from claiming new simulations, aborts an open-loop sweep
// mid-point (the serving layer advances its systems in bounded StepTo
// slices), and returns ctx.Err() — a cancelled run never returns a
// partial report. In-flight closed-loop simulations complete before
// the abort lands, which keeps the process-wide memo coherent.
//
// A scenario's Engine and Workers fields apply to this call alone: the
// engine travels in every simulation config the call builds, and the
// worker bound on a pool private to the call. Concurrent Runs with
// different settings are independent; they share only the memo, whose
// keys include the engine.
func Run(ctx context.Context, sc Scenario) (*Report, error) {
	return execute(ctx, sc, func(Progress) {})
}

// Stream is Run with progress reporting: it starts the scenario in the
// background and returns a progress channel plus a wait function. The
// channel closes when execution finishes; wait blocks until then and
// returns the report (it is idempotent). A slow or absent channel
// reader never blocks execution — events are dropped rather than
// queued unboundedly.
func Stream(ctx context.Context, sc Scenario) (<-chan Progress, func() (*Report, error)) {
	ch := make(chan Progress, 64)
	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := execute(ctx, sc, func(p Progress) {
			select {
			case ch <- p:
			default:
			}
		})
		close(ch)
		done <- outcome{rep, err}
	}()
	wait := sync.OnceValues(func() (*Report, error) {
		o := <-done
		return o.rep, o.err
	})
	return ch, wait
}

// execute is the one execution path under Run and Stream.
func execute(ctx context.Context, sc Scenario, emit func(Progress)) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.Normalized()
	ctx = sim.WithWorkers(ctx, sc.Workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{Scenario: sc}
	// Typo detection before anything reads the environment: a
	// DRSTRANGE_-prefixed variable that names no knob warns once.
	sim.WarnUnknownEnvKnobs()
	switch sc.Kind {
	case KindFigure:
		emit(Progress{Stage: "start", Item: sc.Figure, Total: 1})
		rep.Figures = sim.Experiments[sc.Figure](ctx, sim.RunConfig{Instructions: sc.instructions(), Engine: sc.Engine})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		emit(Progress{Stage: "experiment", Item: sc.Figure, Done: 1, Total: 1})

	case KindRun:
		cfg := sc.runConfig()
		emit(Progress{Stage: "start", Item: cfg.Mix.Name, Total: 1})
		w, err := sim.EvaluateCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		st := w.Ctrl
		rep.Run = &RunMetrics{
			Design:            cfg.Design.String(),
			Mechanism:         cfg.Mech.Name,
			Mix:               cfg.Mix.Name,
			NonRNGSlowdown:    w.NonRNGSlowdown,
			RNGSlowdown:       w.RNGSlowdown,
			Unfairness:        w.Unfairness,
			WeightedSpeedup:   w.WeightedSpeedup,
			BufferServeRate:   w.BufferServeRate,
			PredictorAccuracy: w.PredictorAccuracy,
			RNGStallFrac:      w.RNGStallFrac,
			EnergyJ:           w.EnergyJ,
			Controller: ControllerStats{
				ReadsServed:         st.ReadsServed,
				WritesServed:        st.WritesServed,
				RNGServed:           st.RNGServed,
				RNGFromBuffer:       st.RNGFromBuffer,
				RNGRounds:           st.RNGRounds,
				ModeSwitches:        st.ModeSwitches,
				StarvationOverrides: st.StarvationOverrides,
			},
		}
		emit(Progress{Stage: "evaluate", Item: cfg.Mix.Name, Done: 1, Total: 1})

	case KindServe:
		cfg, designs := sc.serveConfig()
		emit(Progress{Stage: "start", Total: len(designs)})
		figs, points, err := sim.ServeCurvesCtx(ctx, designs, cfg, sc.Loads, func(d sim.Design, done int) {
			emit(Progress{Stage: "design", Item: d.String(), Done: done, Total: len(designs)})
		})
		if err != nil {
			return nil, err
		}
		rep.Figures = figs
		for i, d := range designs {
			rep.Serve = append(rep.Serve, serveStatsFrom(d.String(), points[i]))
		}
	}
	emit(Progress{Stage: "done", Done: 1, Total: 1})
	return rep, nil
}

// instructions resolves the closed-loop budget: the scenario's pin, or
// the DRSTRANGE_INSTR / built-in default.
func (s Scenario) instructions() int64 {
	if s.Instructions > 0 {
		return s.Instructions
	}
	return sim.DefaultInstructions()
}
