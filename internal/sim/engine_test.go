package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"drstrange/internal/cpu"
	"drstrange/internal/memctrl"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// The event-driven engine is proven safe by construction plus
// differential testing: every test here requires bit-identical results
// from the tick-skipping loop and the reference tick-by-tick loop.
// Tests pin the engine through the config, so they check both engines
// whatever DRSTRANGE_ENGINE says.

// TestEngineDifferentialRunResult runs one simulation per corner of the
// design space under both engines and requires deeply equal results:
// every per-app stat, controller counter, energy figure, and tick
// count.
func TestEngineDifferentialRunResult(t *testing.T) {
	quac := trng.QUACTRNG()
	mix := func(name string, mbps float64, apps ...string) workload.Mix {
		return workload.Mix{Name: name, Apps: apps, RNGMbps: mbps}
	}
	// Budgets are sized so the long cases cross the periodic boundaries
	// tick-skipping must not blur: refresh every 1560 ticks, BLISS
	// blacklist clearing every 10000, starvation overrides at 100-tick
	// stall streaks.
	cases := []RunConfig{
		{Design: DesignOblivious, Mix: mix("soplex+rng", 5120, "soplex"), Instructions: 30000},
		{Design: DesignOblivious, Mix: mix("rng-alone", 2560), Instructions: 20000},
		{Design: DesignOblivious, Mix: mix("lbm-alone", 0, "lbm"), Instructions: 20000},
		{Design: DesignBLISS, Mix: mix("lbm+mcf+rng", 5120, "lbm", "mcf"), Instructions: 60000},
		{Design: DesignRNGAwareNoBuffer, Mix: mix("libq+rng", 1280, "libq"), Instructions: 20000},
		{Design: DesignGreedy, Mix: mix("ycsb0+rng", 5120, "ycsb0"), Instructions: 20000},
		{Design: DesignDRStrangeNoPred, Mix: mix("soplex+rng", 5120, "soplex"), BufferWords: 4, Instructions: 20000},
		{Design: DesignDRStrange, Mix: mix("soplex+rng", 5120, "soplex"), Instructions: 30000},
		{Design: DesignDRStrange, Mix: mix("povray+rng", 640, "povray"), Instructions: 20000},
		{Design: DesignDRStrange, Mix: mix("quac", 5120, "soplex"), Mech: quac, Instructions: 20000},
		{Design: DesignDRStrange, Mix: mix("prio", 5120, "lbm", "mcf"), Priorities: []int{1, 0, 0}, Instructions: 20000},
		{Design: DesignDRStrangeRL, Mix: mix("mcf+rng", 5120, "mcf"), Instructions: 20000},
		{Design: DesignDRStrangeNoLowUtil, Mix: mix("lbm+rng", 5120, "lbm"), Instructions: 20000},
	}
	for _, cfg := range cases {
		cfg.Engine = EngineTicked
		ticked := Run(cfg)
		cfg.Engine = EngineEvent
		event := Run(cfg)
		if !reflect.DeepEqual(ticked, event) {
			t.Errorf("%v/%s: engines diverge\n ticked: %+v\n event:  %+v",
				cfg.Design, cfg.Mix.Name, ticked, event)
		}
		if event.TotalTicks < 300 {
			t.Errorf("%v/%s: run too short (%d ticks) to exercise the engine",
				cfg.Design, cfg.Mix.Name, event.TotalTicks)
		}
	}
}

// TestEngineDifferentialIdleProfile requires the idle-period callback
// stream (the Figure 5/18 profiling input) to be identical under both
// engines: same periods, same lengths, same order.
func TestEngineDifferentialIdleProfile(t *testing.T) {
	ctx := context.Background()
	for _, app := range []string{"ycsb0", "povray"} {
		mix := workload.Mix{Name: app, Apps: []string{app}}
		ticked := IdleProfile(ctx, RunConfig{Instructions: 4000, Engine: EngineTicked}, mix)
		event := IdleProfile(ctx, RunConfig{Instructions: 4000, Engine: EngineEvent}, mix)
		if !reflect.DeepEqual(ticked, event) {
			t.Errorf("%s: idle profiles diverge: ticked %d periods, event %d periods",
				app, len(ticked), len(event))
		}
	}
}

// TestGoldenFigureOutputIdenticalAcrossEngines is the golden-output
// regression gate: the rendered bytes of complete figure drivers must
// not change when the engine does. Figure 6 exercises the three-way
// design comparison (oblivious demand service, greedy fills, the full
// DR-STRaNGe stack); Figure 10 sweeps buffer sizes including the
// no-buffer RNG-aware corner.
func TestGoldenFigureOutputIdenticalAcrossEngines(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		driver func(context.Context, RunConfig) []Figure
	}{
		{"fig6", Figure6},
		{"fig10", Figure10},
	} {
		ticked := RenderAll(tc.driver(ctx, RunConfig{Instructions: 1200, Engine: EngineTicked}))
		event := RenderAll(tc.driver(ctx, RunConfig{Instructions: 1200, Engine: EngineEvent}))
		if ticked != event {
			t.Errorf("%s: rendered output differs between engines\n--- ticked ---\n%s\n--- event ---\n%s",
				tc.name, ticked, event)
		}
	}
}

// TestEngineDifferentialEvaluate covers the full derived-metric path —
// shared run, alone-run baselines, slowdown/unfairness/weighted-speedup
// arithmetic — on a refresh-crossing budget.
func TestEngineDifferentialEvaluate(t *testing.T) {
	cfg := RunConfig{
		Design:       DesignDRStrange,
		Mix:          workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120},
		Instructions: 20000,
	}
	cfg.Engine = EngineTicked
	ticked := Evaluate(cfg)
	cfg.Engine = EngineEvent
	event := Evaluate(cfg)
	if !reflect.DeepEqual(ticked, event) {
		t.Errorf("Evaluate diverges\n ticked: %+v\n event:  %+v", ticked, event)
	}
}

// TestExperimentsThreadBaseEngine runs every registered driver at a tiny
// budget with the ticked engine in its base config, from a reset memo,
// and requires every memoized shared run and alone baseline to be keyed
// by the ticked engine. A driver site that builds its own RunConfig
// instead of deriving it from base would run, and key, the default.
func TestExperimentsThreadBaseEngine(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	base := RunConfig{Instructions: 300, Engine: EngineTicked}
	for _, id := range ExperimentIDs() {
		Experiments[id](context.Background(), base)
	}
	memoMu.Lock()
	defer memoMu.Unlock()
	if len(memo.run) == 0 || len(memo.alone) == 0 {
		t.Fatalf("drivers memoized %d runs and %d alone baselines, want some of each", len(memo.run), len(memo.alone))
	}
	for key := range memo.run {
		if !strings.Contains(key, "|eticked|") {
			t.Errorf("shared run keyed without the base engine: %s", key)
		}
	}
	for key := range memo.alone {
		if !strings.HasSuffix(key, "|eticked") {
			t.Errorf("alone baseline keyed without the base engine: %s", key)
		}
	}
}

// tickHarness builds the component graph exactly as Run does, exposing
// the raw tick loop for the allocation test.
type tickHarness struct {
	ctrl  *memctrl.Controller
	cores []*cpu.Core
	now   int64
}

func newTickHarness(t *testing.T, d Design, mix workload.Mix) *tickHarness {
	t.Helper()
	mcfg := buildConfig(d, mix.Cores(), trng.DRaNGe(), 0, nil)
	ctrl, err := memctrl.NewController(mcfg)
	if err != nil {
		t.Fatalf("controller: %v", err)
	}
	h := &tickHarness{ctrl: ctrl}
	ccfg := cpu.DefaultConfig()
	for i, app := range mix.Apps {
		p := workload.MustByName(app)
		tr := p.NewTrace(mcfg.Geom, 1000+i*4096, uint64(i)*7919)
		h.cores = append(h.cores, cpu.NewCore(i, tr, ctrl, ccfg, 1<<60))
	}
	if mix.RNGMbps > 0 {
		rc := workload.DefaultRNGTraceConfig(mix.RNGMbps)
		tr := workload.NewRNGTrace(rc, mcfg.Geom)
		h.cores = append(h.cores, cpu.NewCore(len(h.cores), tr, ctrl, ccfg, 1<<60))
	}
	return h
}

func (h *tickHarness) run(ticks int64) {
	end := h.now + ticks
	for ; h.now < end; h.now++ {
		h.ctrl.Tick(h.now)
		for _, c := range h.cores {
			c.Tick(h.now)
		}
	}
}

// TestHotLoopZeroAllocs asserts the acceptance criterion directly: once
// queues, rings, and the request freelist reach steady state, the tick
// loop performs zero heap allocations — across the oblivious baseline
// (demand-mode churn) and the full DR-STRaNGe design (buffer serves,
// fills, predictor consults). The bare controller+cores loop is checked
// first, then System.StepTo itself — the event loop, its bound heap,
// arrival routing, injection-port admission, completion collection, and
// a registered completion hook — at one shard and at four, each slice
// injecting a fixed arrival pattern and stepping across it.
func TestHotLoopZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation steady state needs a long warmup")
	}
	for _, tc := range []struct {
		name string
		d    Design
		mix  workload.Mix
	}{
		{"oblivious", DesignOblivious, workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120}},
		{"drstrange", DesignDRStrange, workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120}},
		{"greedy", DesignGreedy, workload.Mix{Name: "ycsb0+rng", Apps: []string{"ycsb0"}, RNGMbps: 2560}},
	} {
		h := newTickHarness(t, tc.d, tc.mix)
		h.run(50000) // reach steady-state queue/freelist occupancy
		avg := testing.AllocsPerRun(20, func() { h.run(2000) })
		if avg != 0 {
			t.Errorf("%s: %v allocs per 2000-tick batch in steady state, want 0", tc.name, avg)
		}
	}
	for _, shards := range []int{1, 4} {
		sys := NewSystem(RunConfig{
			Design:       DesignDRStrange,
			Mix:          workload.Mix{Name: "mcf", Apps: []string{"mcf"}},
			Instructions: serveTarget,
			Clients:      4,
			Shards:       shards,
			Router:       RouterJSQ,
			Engine:       EngineEvent,
		})
		completed := 0
		sys.OnInjectionComplete(func(*InjectedRequest) { completed++ })
		next := 0
		slice := func() {
			base := sys.Now()
			for i := int64(0); i < 20; i++ {
				sys.InjectRNG(next%4, base+i*100, 1+next%2)
				next++
			}
			sys.StepTo(base + 1999)
		}
		for i := 0; i < 50; i++ {
			slice() // reach steady-state queue/freelist occupancy
		}
		if avg := testing.AllocsPerRun(20, slice); avg != 0 {
			t.Errorf("shards=%d: %v allocs per 2000-tick slice in steady state, want 0", shards, avg)
		}
		if completed == 0 {
			t.Errorf("shards=%d: no injected request completed", shards)
		}
	}
}
