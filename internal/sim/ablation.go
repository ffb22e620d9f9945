package sim

import (
	"context"
	"fmt"

	"drstrange/internal/core"
	"drstrange/internal/memctrl"
	"drstrange/internal/metrics"
	"drstrange/internal/workload"
)

// Ablation helpers for two design choices beyond the paper's own
// ablations (Figures 10-15): the simple predictor's table size and the
// starvation stall limit.

// PredictorTableSweep measures simple-predictor accuracy as a function
// of table size, averaged over a representative workload sample.
func PredictorTableSweep(entries int, instr int64) float64 {
	sample := []string{"ycsb0", "soplex", "lbm", "libq"}
	cfgs := make([]RunConfig, len(sample))
	for i, app := range sample {
		cfgs[i] = RunConfig{
			Design:       DesignDRStrange,
			Mix:          workload.Mix{Name: app + "+rng", Apps: []string{app}, RNGMbps: 5120},
			Instructions: instr,
			TweakID:      fmt.Sprintf("predtable-%d", entries),
			Tweak: func(cfg *memctrl.Config) {
				cfg.Predictor = core.NewSimplePredictor(cfg.Geom.Channels, entries, cfg.PeriodThreshold)
			},
		}
	}
	var accs []float64
	for _, w := range evalAllCtx(context.TODO(), cfgs) {
		accs = append(accs, w.PredictorAccuracy)
	}
	return metrics.Mean(accs)
}

// StallLimitSweep reports how the starvation stall limit affects the
// override count and slowdowns on a contended workload.
func StallLimitSweep(limits []int64, instr int64) string {
	mix := workload.Mix{Name: "lbm+rng", Apps: []string{"lbm"}, RNGMbps: 5120}
	cfgs := make([]RunConfig, len(limits))
	for i, lim := range limits {
		cfgs[i] = RunConfig{
			Design:       DesignDRStrange,
			Mix:          mix,
			Instructions: instr,
			TweakID:      fmt.Sprintf("stall-%d", lim),
			Tweak: func(cfg *memctrl.Config) {
				cfg.StallLimit = lim
			},
		}
	}
	out := ""
	for i, w := range evalAllCtx(context.TODO(), cfgs) {
		out += fmt.Sprintf("limit=%5d: overrides=%d nonRNG=%.3f rng=%.3f\n",
			limits[i], w.Ctrl.StarvationOverrides, w.NonRNGSlowdown, w.RNGSlowdown)
	}
	return out
}
