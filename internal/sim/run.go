package sim

import (
	"context"
	"fmt"

	"drstrange/internal/energy"
	"drstrange/internal/memctrl"
	"drstrange/internal/metrics"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// DefaultInstructions is the per-core instruction budget of a measured
// run. The environment variable DRSTRANGE_INSTR overrides it (larger
// budgets sharpen the statistics at proportional simulation cost); see
// env.go for the accepted values.
func DefaultInstructions() int64 {
	return envInstr()
}

// RunConfig describes one simulation.
type RunConfig struct {
	Design Design
	Mix    workload.Mix
	// Mech is the TRNG mechanism; the zero value selects D-RaNGe
	// (Section 7's default).
	Mech trng.Mechanism
	// BufferWords sizes the random number buffer; <= 0 selects the
	// design default (16).
	BufferWords int
	// Instructions is the per-core measurement budget; <= 0 selects
	// DefaultInstructions().
	Instructions int64
	// Priorities optionally assigns OS priorities per core (RNG
	// benchmark core is the last).
	Priorities []int
	// OnIdlePeriod observes idle periods (Figure 5/18 profiling).
	// Runs with a callback are never memoized.
	OnIdlePeriod func(ch int, length int64)
	// Seed perturbs the workload traces.
	Seed uint64
	// Clients reserves injection-port client slots on the built System
	// (System.InjectRNG): externally generated RNG requests are
	// attributed to controller core ids after the mix's cores. Runs
	// with Clients > 0 are never memoized — their outcome depends on
	// the injection schedule, which the memo key cannot capture.
	Clients int
	// Shards is the number of independent DRAM channel shards — each
	// with its own controller, device, RNG buffer, and mechanism
	// instance — behind the injection port; <= 0 selects 1 (the
	// paper's single-channel machine; every figure driver uses it).
	// Each shard runs the full Mix with a seed offset so shard traces
	// are decorrelated.
	Shards int
	// Router names the request routing policy across shards (router.go:
	// round-robin, jsq, buffer-aware, sticky); "" selects round-robin.
	// Irrelevant when Shards == 1.
	Router string
	// Classes is the request-class table of the injection port
	// (class.go): InjectRNGClass indexes into it to attach a priority
	// and deadline to an injected request. Empty leaves the port
	// unclassed — every historical injection path, byte for byte.
	Classes []RequestClass
	// Admission names the shard admission policy applied at the routing
	// tick (AdmissionNames: none, drop-lowest-class, threshold-by-depth);
	// "" selects none. Meaningful only with Clients > 0.
	Admission string
	// AdmitDepth is the per-shard queue-depth admission bound; <= 0
	// selects DefaultAdmitDepth. Ignored when Admission is none.
	AdmitDepth int
	// Health configures online entropy health monitoring (health.go):
	// continuous SP 800-90B-style tests per shard with trip/quarantine/
	// re-qualification semantics. The zero value (Enabled false) runs
	// without monitoring — the historical behavior, byte for byte.
	Health trng.HealthConfig
	// Fault schedules a deterministic entropy degradation on every
	// shard's synthesized word stream (trng.FaultProfile); the zero
	// value injects nothing. Meaningful only with Health.Enabled.
	Fault trng.FaultProfile
	// Tweak optionally adjusts the controller configuration after the
	// design's defaults are applied (ablation studies). TweakID must
	// uniquely name the adjustment: it keys the run memoization.
	Tweak   func(*memctrl.Config)
	TweakID string
	// Engine names the inner simulation loop (EngineEvent, EngineTicked);
	// "" selects DefaultEngine: DRSTRANGE_ENGINE, then event. The two
	// engines produce bit-identical results; the memo keys on the name.
	Engine string
}

// Normalized returns the configuration with its defaults filled in:
// the D-RaNGe mechanism and the DefaultInstructions budget. This is
// the single defaulting point every entry path goes through (Run,
// NewSystem, the memo), and the reference the public scenario API's
// defaulting-parity tests compare against.
func (c RunConfig) Normalized() RunConfig {
	if c.Mech.Name == "" {
		c.Mech = trng.DRaNGe()
	}
	if c.Instructions <= 0 {
		c.Instructions = DefaultInstructions()
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Router == "" {
		c.Router = RouterRoundRobin
	}
	if c.Admission == "" {
		c.Admission = AdmissionNone
	}
	if c.AdmitDepth <= 0 {
		c.AdmitDepth = DefaultAdmitDepth
	}
	if c.Engine == "" {
		c.Engine = DefaultEngine()
	}
	return c
}

func (c *RunConfig) normalize() { *c = c.Normalized() }

// AppResult is one application's measured outcome.
type AppResult struct {
	Name    string
	IsRNG   bool
	Ticks   int64 // memory ticks to retire the instruction budget
	Retired int64
	IPC     float64 // instructions per memory tick
	MPKI    float64
	MCPI    float64
	// RNGStallFrac is the fraction of execution ticks stalled on
	// random number requests.
	RNGStallFrac float64
}

// RunResult is a completed simulation.
type RunResult struct {
	Apps       []AppResult
	Ctrl       memctrl.Stats
	Counts     energy.Counts
	Energy     energy.Breakdown
	TotalTicks int64
	// MemBusyChannelTicks is channel-ticks spent actively serving
	// requests or generating random numbers — the paper's "total time
	// spent for RNG and non-RNG memory accesses" (Section 8.9).
	MemBusyChannelTicks int64
}

// rngAppName names the synthetic RNG benchmark in results.
func rngAppName(mbps float64) string { return fmt.Sprintf("rng-%dMbps", int(mbps)) }

// Run executes one simulation to completion: every core retires its
// instruction budget (finished cores keep generating traffic, the
// standard multiprogrammed methodology). It is a thin client of the
// steppable System core: build once, step to completion, snapshot.
func Run(cfg RunConfig) RunResult {
	cfg.normalize()
	sys := NewSystem(cfg)
	maxTicks := cfg.Instructions * 2000
	sys.StepTo(maxTicks - 1)
	if !sys.Done() {
		panic(fmt.Sprintf("sim: run exceeded %d ticks (design=%v mix=%s)", maxTicks, cfg.Design, cfg.Mix.Name))
	}
	return sys.Result()
}

func frac(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// WorkloadResult couples a shared run with the alone-run baselines and
// the derived paper metrics.
type WorkloadResult struct {
	Mix    workload.Mix
	Design Design

	// Per-app slowdowns (shared ticks / alone-on-baseline ticks), in
	// mix order with the RNG benchmark last.
	Slowdowns []float64
	// NonRNGSlowdown averages the non-RNG apps' slowdowns.
	NonRNGSlowdown float64
	// RNGSlowdown is the RNG benchmark's slowdown (0 if none).
	RNGSlowdown float64
	// Unfairness is the max/min memory-slowdown ratio.
	Unfairness float64
	// WeightedSpeedup sums IPC_shared/IPC_alone over non-RNG apps.
	WeightedSpeedup float64

	BufferServeRate   float64
	PredictorAccuracy float64
	EnergyJ           float64
	MemBusyTicks      int64
	TotalTicks        int64
	RNGStallFrac      float64
	Ctrl              memctrl.Stats
}

// Evaluate runs the workload under the design and derives the metrics
// the figures plot. Shared runs and alone runs are memoized
// process-wide, so figures sharing configurations (e.g. Figures 6 and
// 9) pay for each simulation once. The alone-run baselines are
// independent simulations and fan out across the worker pool.
func Evaluate(cfg RunConfig) WorkloadResult {
	w, _ := EvaluateCtx(context.Background(), cfg)
	return w
}

// EvaluateCtx is Evaluate under a context. Cancellation is cooperative
// at simulation granularity: the shared run and any in-flight alone-run
// baselines complete (keeping the memo coherent), but no new baseline
// starts after ctx is done, and the error reports the abandonment. The
// result is meaningful only when the error is nil.
func EvaluateCtx(ctx context.Context, cfg RunConfig) (WorkloadResult, error) {
	cfg.normalize()
	if err := ctx.Err(); err != nil {
		return WorkloadResult{}, err
	}
	shared := memoRun(ctx, cfg)

	w := WorkloadResult{
		Mix:               cfg.Mix,
		Design:            cfg.Design,
		BufferServeRate:   shared.Ctrl.BufferServeRate(),
		PredictorAccuracy: shared.Ctrl.PredictorAccuracy(),
		EnergyJ:           shared.Energy.Total,
		MemBusyTicks:      shared.MemBusyChannelTicks,
		TotalTicks:        shared.TotalTicks,
		Ctrl:              shared.Ctrl,
	}

	type baselines struct{ base, same AppResult }
	alone := make([]baselines, len(shared.Apps))
	parDoCtx(ctx, len(shared.Apps), func(i int) {
		app := shared.Apps[i]
		alone[i] = baselines{
			base: aloneResult(ctx, app, cfg, DesignOblivious),
			same: aloneResult(ctx, app, cfg, cfg.Design),
		}
	})
	if err := ctx.Err(); err != nil {
		return WorkloadResult{}, err
	}

	var memSlow []float64
	var sharedIPC, aloneIPC []float64
	var nonRNG []float64
	for i, app := range shared.Apps {
		aloneBase, aloneSame := alone[i].base, alone[i].same
		sd := metrics.Slowdown(app.Ticks, aloneBase.Ticks)
		w.Slowdowns = append(w.Slowdowns, sd)
		memSlow = append(memSlow, metrics.MemSlowdown(app.MCPI, aloneSame.MCPI))
		if app.IsRNG {
			w.RNGSlowdown = sd
			w.RNGStallFrac = app.RNGStallFrac
		} else {
			nonRNG = append(nonRNG, sd)
			sharedIPC = append(sharedIPC, app.IPC)
			aloneIPC = append(aloneIPC, aloneBase.IPC)
		}
	}
	w.NonRNGSlowdown = metrics.Mean(nonRNG)
	w.Unfairness = metrics.Unfairness(memSlow)
	w.WeightedSpeedup = metrics.WeightedSpeedup(sharedIPC, aloneIPC)
	return w, nil
}
