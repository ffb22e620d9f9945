// Package sim wires the full simulated system together — cores
// (internal/cpu) driving the memory controller (internal/memctrl) over
// the DRAM device (internal/dram) with a TRNG mechanism
// (internal/trng) and the DR-STRaNGe components (internal/core) — and
// implements the paper's experiment drivers: one function per figure
// and table of the evaluation (Section 8 and the appendix).
package sim

import (
	"fmt"
	"sort"

	"drstrange/internal/core"
	"drstrange/internal/memctrl"
	"drstrange/internal/trng"
)

// Design identifies one of the evaluated system designs.
type Design uint8

// The paper's comparison points.
const (
	// DesignOblivious is the RNG-oblivious baseline: FR-FCFS+Cap
	// scheduling, on-demand all-channel RNG generation (Section 3).
	DesignOblivious Design = iota
	// DesignBLISS swaps the baseline's scheduler for BLISS
	// (Figure 11).
	DesignBLISS
	// DesignRNGAwareNoBuffer is DR-STRaNGe's RNG-aware scheduler with
	// no random number buffer (Figure 11's "DR-STRANGE" bars).
	DesignRNGAwareNoBuffer
	// DesignGreedy is the Greedy Idle comparison design: zero-overhead
	// magic buffer fills in long idle periods plus RNG-aware
	// scheduling (Section 7).
	DesignGreedy
	// DesignDRStrangeNoPred is DR-STRaNGe with the simple buffering
	// mechanism: every idle period assumed long, no low-utilization
	// prediction (Section 5.1.1, Figure 13 "No Pred.").
	DesignDRStrangeNoPred
	// DesignDRStrange is the full design: simple idleness predictor,
	// low-utilization threshold 4, 16-entry buffer, RNG-aware
	// scheduler.
	DesignDRStrange
	// DesignDRStrangeRL replaces the simple predictor with the
	// Q-learning agent (Figure 13 "+RL").
	DesignDRStrangeRL
	// DesignDRStrangeNoLowUtil disables low-utilization prediction
	// (Figure 15's "Threshold = 0").
	DesignDRStrangeNoLowUtil
)

// String names the design as the paper's figures do.
func (d Design) String() string {
	switch d {
	case DesignOblivious:
		return "RNG-Oblivious"
	case DesignBLISS:
		return "BLISS"
	case DesignRNGAwareNoBuffer:
		return "RNG-Aware (no buffer)"
	case DesignGreedy:
		return "Greedy"
	case DesignDRStrangeNoPred:
		return "DR-STRaNGe (No Pred.)"
	case DesignDRStrange:
		return "DR-STRaNGe"
	case DesignDRStrangeRL:
		return "DR-STRaNGe + RL"
	case DesignDRStrangeNoLowUtil:
		return "DR-STRaNGe (Threshold=0)"
	default:
		return fmt.Sprintf("Design(%d)", uint8(d))
	}
}

// designNames maps the flag-friendly names the cmd/ drivers accept to
// designs.
var designNames = map[string]Design{
	"oblivious":           DesignOblivious,
	"bliss":               DesignBLISS,
	"rngaware":            DesignRNGAwareNoBuffer,
	"greedy":              DesignGreedy,
	"drstrange":           DesignDRStrange,
	"drstrange-nopred":    DesignDRStrangeNoPred,
	"drstrange-rl":        DesignDRStrangeRL,
	"drstrange-nolowutil": DesignDRStrangeNoLowUtil,
}

// DesignByName resolves a flag-friendly design name (see DesignNames).
func DesignByName(name string) (Design, bool) {
	d, ok := designNames[name]
	return d, ok
}

// DesignNames lists the accepted design names, sorted.
func DesignNames() []string {
	names := make([]string, 0, len(designNames))
	for n := range designNames { //drstrange:nondet-ok collect-then-sort: the slice is sorted before it is returned
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// defaultBufferWords is Table 1's random number buffer capacity in
// 64-bit words.
const defaultBufferWords = 16

// buildConfig assembles the memory controller configuration for a
// design. bufWords <= 0 selects the design's default buffer size.
func buildConfig(d Design, nCores int, mech trng.Mechanism, bufWords int, prio []int) memctrl.Config {
	cfg := memctrl.DefaultConfig(nCores)
	cfg.Mech = mech
	cfg.Priorities = prio
	if bufWords <= 0 {
		bufWords = defaultBufferWords
	}
	channels := cfg.Geom.Channels

	switch d {
	case DesignOblivious:
		// Defaults: RNGOblivious + FR-FCFS+Cap.
	case DesignBLISS:
		cfg.Scheduler = memctrl.NewBLISS(nCores)
	case DesignRNGAwareNoBuffer:
		cfg.Policy = memctrl.RNGAware
	case DesignGreedy:
		cfg.Policy = memctrl.RNGAware
		cfg.Buffer = core.NewRandBuffer(bufWords)
		cfg.Fill = memctrl.FillGreedy
	case DesignDRStrangeNoPred:
		cfg.Policy = memctrl.RNGAware
		cfg.Buffer = core.NewRandBuffer(bufWords)
		cfg.Fill = memctrl.FillPredictor // nil predictor: all periods long
	case DesignDRStrange:
		cfg.Policy = memctrl.RNGAware
		cfg.Buffer = core.NewRandBuffer(bufWords)
		cfg.Fill = memctrl.FillPredictor
		cfg.Predictor = core.NewSimplePredictor(channels, memctrl.PeriodThreshold)
		cfg.LowUtilThreshold = 4
	case DesignDRStrangeRL:
		cfg.Policy = memctrl.RNGAware
		cfg.Buffer = core.NewRandBuffer(bufWords)
		cfg.Fill = memctrl.FillPredictor
		cfg.Predictor = core.NewQPredictor(channels, memctrl.PeriodThreshold)
		cfg.LowUtilThreshold = 4
	case DesignDRStrangeNoLowUtil:
		cfg.Policy = memctrl.RNGAware
		cfg.Buffer = core.NewRandBuffer(bufWords)
		cfg.Fill = memctrl.FillPredictor
		cfg.Predictor = core.NewSimplePredictor(channels, memctrl.PeriodThreshold)
		cfg.LowUtilThreshold = 0
	default:
		panic(fmt.Sprintf("sim: unknown design %d", d))
	}
	return cfg
}
