package sim

import (
	"context"
	"sync"
	"testing"

	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// runKey must separate every field that changes a simulation's
// outcome: two RunConfigs differing in any one of them may never
// share a cache entry.
func TestRunKeyUniqueness(t *testing.T) {
	base := RunConfig{
		Design:       DesignDRStrange,
		Mix:          workload.Mix{Name: "soplex", Apps: []string{"soplex"}, RNGMbps: 5120},
		Instructions: 10000,
	}
	base.normalize()

	variants := map[string]func(c *RunConfig){
		"base":           func(c *RunConfig) {},
		"design":         func(c *RunConfig) { c.Design = DesignOblivious },
		"app":            func(c *RunConfig) { c.Mix.Apps = []string{"lbm"} },
		"two apps":       func(c *RunConfig) { c.Mix.Apps = []string{"soplex", "lbm"} },
		"rng mbps":       func(c *RunConfig) { c.Mix.RNGMbps = 640 },
		"mechanism":      func(c *RunConfig) { c.Mech = trng.QUACTRNG() },
		"buffer words":   func(c *RunConfig) { c.BufferWords = 64 },
		"instructions":   func(c *RunConfig) { c.Instructions = 20000 },
		"seed":           func(c *RunConfig) { c.Seed = 1 },
		"priorities":     func(c *RunConfig) { c.Priorities = []int{1, 0} },
		"priorities rev": func(c *RunConfig) { c.Priorities = []int{0, 1} },
		"tweak id":       func(c *RunConfig) { c.TweakID = "stall-10" },
		"tweak id 2":     func(c *RunConfig) { c.TweakID = "stall-100" },
		"engine": func(c *RunConfig) {
			c.Engine = map[string]string{EngineEvent: EngineTicked, EngineTicked: EngineEvent}[c.Engine]
		},
	}
	seen := map[string]string{}
	for name, mutate := range variants {
		cfg := base
		mutate(&cfg)
		key := runKey(cfg)
		if prev, dup := seen[key]; dup {
			t.Fatalf("variants %q and %q collide on key %q", name, prev, key)
		}
		seen[key] = name
	}
}

// TestAloneBaselineUsesSharedRNGRate pins the RNG benchmark's alone-run
// baseline to the shared mix's exact rate. The benchmark's display name
// rounds the rate to whole Mb/s, so a baseline built from the name would
// run a 0.5 Mb/s app as an empty mix (a panic) and a 1280.7 Mb/s app at
// 1280 Mb/s, sharing the 1280 run's memo entry.
func TestAloneBaselineUsesSharedRNGRate(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	ctx := context.Background()
	for _, mbps := range []float64{1280, 1280.7, 0.5} {
		cfg := RunConfig{
			Design:       DesignDRStrange,
			Mix:          workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: mbps},
			Instructions: 3000,
		}
		cfg.normalize()
		shared := Run(cfg)
		app := shared.Apps[len(shared.Apps)-1]
		if !app.IsRNG {
			t.Fatalf("%g Mb/s: last app %q is not the RNG benchmark", mbps, app.Name)
		}
		got := aloneResult(ctx, app, cfg, DesignOblivious)
		want := Run(RunConfig{
			Design:       DesignOblivious,
			Mix:          workload.Mix{RNGMbps: mbps},
			Instructions: cfg.Instructions,
			Engine:       cfg.Engine,
		}).Apps[0]
		if got != want {
			t.Errorf("%g Mb/s: alone baseline %+v, want the shared rate's %+v", mbps, got, want)
		}
	}
}

// A run with an idle-period callback must bypass the cache entirely:
// the caller wants the side effects every time.
func TestCallbackRunsNeverMemoized(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	mix := workload.Mix{Name: "ycsb0", Apps: []string{"ycsb0"}}
	count := func() int {
		n := 0
		memoRun(context.Background(), RunConfig{
			Design:       DesignOblivious,
			Mix:          mix,
			Instructions: 5000,
			OnIdlePeriod: func(int, int64) { n++ },
		})
		return n
	}
	first, second := count(), count()
	if first == 0 || second == 0 {
		t.Fatalf("callback not invoked on repeat run (first=%d second=%d)", first, second)
	}
}

// ResetMemo must be safe while evaluations are in flight: racing
// resets may only cost cache hits, never corrupt results.
func TestResetMemoConcurrentWithEvaluations(t *testing.T) {
	ResetMemo()
	defer ResetMemo()

	ctx := WithWorkers(context.Background(), 4)
	mix := workload.Mix{Name: "ycsb0", Apps: []string{"ycsb0"}, RNGMbps: 5120}
	cfg := RunConfig{Design: DesignDRStrange, Mix: mix, Instructions: 5000}
	want, _ := EvaluateCtx(ctx, cfg)

	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ResetMemo()
			}
		}
	}()
	var evals sync.WaitGroup
	for g := 0; g < 4; g++ {
		evals.Add(1)
		go func() {
			defer evals.Done()
			for i := 0; i < 10; i++ {
				got, _ := EvaluateCtx(ctx, cfg)
				if got.NonRNGSlowdown != want.NonRNGSlowdown ||
					got.TotalTicks != want.TotalTicks {
					t.Errorf("result corrupted under concurrent ResetMemo: %+v", got)
					return
				}
			}
		}()
	}
	evals.Wait()
	close(stop)
	resetter.Wait()
}
