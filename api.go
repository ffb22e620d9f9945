package drstrange

import (
	"cmp"
	"context"

	"drstrange/internal/sim"
)

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
		rep.Figures = sim.Experiments[sc.Figure](ctx, sim.RunConfig{Instructions: cmp.Or(sc.Instructions, sim.DefaultInstructions), Engine: sc.Engine})
		if err := ctx.Err(); err != nil {
			return nil, err
		}

	case KindRun:
		cfg := sc.runConfig()
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

	case KindServe:
		cfg, designs := sc.serveConfig()
		figs, points, err := sim.ServeCurvesCtx(ctx, designs, cfg, sc.Loads)
		if err != nil {
			return nil, err
		}
		rep.Figures = figs
		for i, d := range designs {
			rep.Serve = append(rep.Serve, serveStatsFrom(d.String(), points[i]))
		}
	}
	return rep, nil
}
