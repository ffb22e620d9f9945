package sim

import (
	"fmt"
	"testing"

	"drstrange/internal/workload"
)

// TestProbeCalibration logs headline magnitudes for manual calibration
// against the paper. Run with -v.
func TestProbeCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	const instr = 100000
	for _, mbps := range []float64{640, 1280, 2560, 5120} {
		var line string
		for _, app := range []string{"ycsb0", "soplex", "lbm", "mcf", "libq", "povray"} {
			mix := workload.Mix{Name: app, Apps: []string{app}, RNGMbps: mbps}
			w := evaluate(t, RunConfig{Design: DesignOblivious, Mix: mix, Instructions: instr})
			line += fmt.Sprintf(" %s[n=%.2f r=%.2f u=%.2f]", app, w.NonRNGSlowdown, w.RNGSlowdown, w.Unfairness)
		}
		t.Logf("mbps=%5.0f%s", mbps, line)
	}
	for _, app := range []string{"ycsb0", "soplex", "lbm", "mcf"} {
		mix := workload.Mix{Name: app, Apps: []string{app}, RNGMbps: 5120}
		for _, d := range []Design{DesignOblivious, DesignGreedy, DesignDRStrange, DesignDRStrangeNoPred, DesignDRStrangeRL} {
			w := evaluate(t, RunConfig{Design: d, Mix: mix, Instructions: instr})
			t.Logf("%-8s %-26v nonRNG=%.3f rng=%.3f unf=%.3f serve=%.2f acc=%.2f rngstall=%.2f",
				app, d, w.NonRNGSlowdown, w.RNGSlowdown, w.Unfairness, w.BufferServeRate, w.PredictorAccuracy, w.RNGStallFrac)
		}
	}
}
