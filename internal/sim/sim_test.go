package sim

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// Shape tests: assert the qualitative results the paper reports — who
// wins, in which direction — at a reduced instruction budget. The
// bench harness regenerates the full figures.

const testInstr = 40_000

// evaluate runs EvaluateCtx under a background context, failing the
// test on an error.
func evaluate(t testing.TB, cfg RunConfig) WorkloadResult {
	t.Helper()
	w, err := EvaluateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func eval(t *testing.T, d Design, app string, mbps float64) WorkloadResult {
	t.Helper()
	mix := workload.Mix{Name: app, Apps: []string{app}, RNGMbps: mbps}
	return evaluate(t, RunConfig{Design: d, Mix: mix, Instructions: testInstr})
}

func TestDesignStrings(t *testing.T) {
	seen := map[string]bool{}
	for d := DesignOblivious; d <= DesignDRStrangeNoLowUtil; d++ {
		s := d.String()
		if s == "" || seen[s] {
			t.Fatalf("design %d name %q duplicated or empty", d, s)
		}
		seen[s] = true
	}
	if !strings.Contains(Design(99).String(), "Design(") {
		t.Fatal("unknown design unnamed")
	}
}

func TestBaselineSlowdownGrowsWithRNGIntensity(t *testing.T) {
	// Figure 1's central observation.
	prev := 0.0
	for _, mbps := range []float64{640, 2560, 5120} {
		w := eval(t, DesignOblivious, "soplex", mbps)
		if w.NonRNGSlowdown <= prev {
			t.Fatalf("non-RNG slowdown not increasing: %v at %v Mb/s (prev %v)",
				w.NonRNGSlowdown, mbps, prev)
		}
		prev = w.NonRNGSlowdown
	}
}

func TestBaselineUnfairnessGrowsWithRNGIntensity(t *testing.T) {
	lo := eval(t, DesignOblivious, "lbm", 640).Unfairness
	hi := eval(t, DesignOblivious, "lbm", 5120).Unfairness
	if hi <= lo {
		t.Fatalf("unfairness %v at 5120 !> %v at 640", hi, lo)
	}
}

func TestMemoryIntensityScalesInterference(t *testing.T) {
	// H apps suffer more from RNG interference than L apps (Figure 1's
	// per-app spread).
	l := eval(t, DesignOblivious, "povray", 5120).NonRNGSlowdown
	h := eval(t, DesignOblivious, "libq", 5120).NonRNGSlowdown
	if h <= l {
		t.Fatalf("H-app slowdown %v !> L-app slowdown %v", h, l)
	}
}

func TestDRStrangeImprovesBothAppClasses(t *testing.T) {
	// The headline result (Figures 6 and 9) on a medium-intensity app.
	base := eval(t, DesignOblivious, "soplex", 5120)
	drs := eval(t, DesignDRStrange, "soplex", 5120)
	if drs.NonRNGSlowdown >= base.NonRNGSlowdown {
		t.Fatalf("non-RNG: DR-STRaNGe %v !< baseline %v", drs.NonRNGSlowdown, base.NonRNGSlowdown)
	}
	if drs.RNGSlowdown >= base.RNGSlowdown {
		t.Fatalf("RNG: DR-STRaNGe %v !< baseline %v", drs.RNGSlowdown, base.RNGSlowdown)
	}
	if drs.Unfairness >= base.Unfairness {
		t.Fatalf("fairness: DR-STRaNGe %v !< baseline %v", drs.Unfairness, base.Unfairness)
	}
}

func TestDRStrangeRNGAppFasterThanAlone(t *testing.T) {
	// Paper: DR-STRaNGe improves RNG apps by 20.6% over running alone
	// on the baseline (buffer hides the TRNG latency).
	w := eval(t, DesignDRStrange, "ycsb0", 5120)
	if w.RNGSlowdown >= 1 {
		t.Fatalf("RNG slowdown %v, want < 1 (faster than alone)", w.RNGSlowdown)
	}
	if w.BufferServeRate < 0.3 {
		t.Fatalf("buffer serve rate %v too low to explain the speedup", w.BufferServeRate)
	}
}

func TestGreedyBetweenBaselineAndDRStrangeOnRNGSide(t *testing.T) {
	base := eval(t, DesignOblivious, "lbm", 5120)
	greedy := eval(t, DesignGreedy, "lbm", 5120)
	drs := eval(t, DesignDRStrange, "lbm", 5120)
	if !(greedy.RNGSlowdown < base.RNGSlowdown) {
		t.Fatalf("greedy RNG %v !< baseline %v", greedy.RNGSlowdown, base.RNGSlowdown)
	}
	if !(drs.RNGSlowdown < greedy.RNGSlowdown) {
		t.Fatalf("DR-STRaNGe RNG %v !< greedy %v (real fills beat 8-bit magic fills)",
			drs.RNGSlowdown, greedy.RNGSlowdown)
	}
}

func TestRNGAwareSchedulerAloneHelps(t *testing.T) {
	// Figure 11: the scheduler without any buffer already improves on
	// the RNG-oblivious baseline.
	base := eval(t, DesignOblivious, "soplex", 5120)
	aware := eval(t, DesignRNGAwareNoBuffer, "soplex", 5120)
	if aware.NonRNGSlowdown >= base.NonRNGSlowdown {
		t.Fatalf("RNG-aware %v !< baseline %v", aware.NonRNGSlowdown, base.NonRNGSlowdown)
	}
}

func TestBLISSUnfairOnIntenseApps(t *testing.T) {
	// Figure 11: BLISS blacklists memory-intensive non-RNG apps and
	// raises unfairness relative to FR-FCFS+Cap.
	cap := eval(t, DesignOblivious, "lbm", 5120)
	bliss := eval(t, DesignBLISS, "lbm", 5120)
	if bliss.Unfairness <= cap.Unfairness {
		t.Fatalf("BLISS unfairness %v !> FR-FCFS+Cap %v", bliss.Unfairness, cap.Unfairness)
	}
}

func TestBufferSizeSaturates(t *testing.T) {
	// Figure 10: serve rate grows with buffer size and saturates.
	serve := func(words int) float64 {
		mix := workload.Mix{Name: "ycsb0", Apps: []string{"ycsb0"}, RNGMbps: 5120}
		return evaluate(t, RunConfig{
			Design: DesignDRStrangeNoPred, Mix: mix,
			BufferWords: words, Instructions: testInstr,
		}).BufferServeRate
	}
	s1, s16, s64 := serve(1), serve(16), serve(64)
	if !(s1 < s16) {
		t.Fatalf("serve rate not increasing: 1-entry %v vs 16-entry %v", s1, s16)
	}
	if s64-s16 > 0.1 {
		t.Fatalf("no saturation past 16 entries: %v -> %v", s16, s64)
	}
}

func TestQUACWorksEndToEnd(t *testing.T) {
	// Figure 16: DR-STRaNGe improves on the baseline under QUAC-TRNG
	// as well.
	mix := workload.Mix{Name: "soplex", Apps: []string{"soplex"}, RNGMbps: 5120}
	opt := trng.QUACTRNG()
	base := evaluate(t, RunConfig{Design: DesignOblivious, Mix: mix, Mech: opt, Instructions: testInstr})
	drs := evaluate(t, RunConfig{Design: DesignDRStrange, Mix: mix, Mech: opt, Instructions: testInstr})
	if drs.NonRNGSlowdown >= base.NonRNGSlowdown || drs.RNGSlowdown >= base.RNGSlowdown {
		t.Fatalf("QUAC: DR-STRaNGe (%v, %v) !< baseline (%v, %v)",
			drs.NonRNGSlowdown, drs.RNGSlowdown, base.NonRNGSlowdown, base.RNGSlowdown)
	}
}

func TestParametricSweepMonotone(t *testing.T) {
	// Figure 2: higher TRNG throughput -> lower non-RNG slowdown, with
	// saturation.
	mix := workload.Mix{Name: "lbm", Apps: []string{"lbm"}, RNGMbps: 5120}
	sl := func(mbps float64) float64 {
		return evaluate(t, RunConfig{
			Design: DesignOblivious, Mix: mix,
			Mech: trng.Parametric(mbps, 4), Instructions: testInstr,
		}).NonRNGSlowdown
	}
	s200, s1600, s6400 := sl(200), sl(1600), sl(6400)
	if !(s200 > s1600) {
		t.Fatalf("no improvement 200->1600 Mb/s: %v -> %v", s200, s1600)
	}
	if s1600-s6400 > (s200-s1600)/2 {
		t.Fatalf("no saturation: %v -> %v -> %v", s200, s1600, s6400)
	}
}

func TestPriorityRulesSteerService(t *testing.T) {
	// Figure 12: prioritizing a side improves that side vs the other
	// prioritization. The buffer-less RNG-aware design exposes the
	// scheduling rules directly (with the buffer most requests bypass
	// the queues entirely).
	mix := workload.Mix{Name: "lbm", Apps: []string{"lbm"}, RNGMbps: 5120}
	run := func(rngHigh bool) WorkloadResult {
		p := []int{1, 0}
		if rngHigh {
			p = []int{0, 1}
		}
		return evaluate(t, RunConfig{Design: DesignRNGAwareNoBuffer, Mix: mix, Priorities: p, Instructions: testInstr})
	}
	nonRNGFirst := run(false)
	rngFirst := run(true)
	// Prioritizing the non-RNG application must help the non-RNG
	// application relative to prioritizing the RNG application. (The
	// RNG side is less discriminative: even deprioritized, RNG
	// requests are served promptly from idle channels — the paper's
	// Figure 12 likewise shows some workloads benefiting under either
	// prioritization.)
	if nonRNGFirst.NonRNGSlowdown >= rngFirst.NonRNGSlowdown {
		t.Fatalf("non-RNG-prioritized non-RNG slowdown %v !< RNG-prioritized %v",
			nonRNGFirst.NonRNGSlowdown, rngFirst.NonRNGSlowdown)
	}
}

func TestPredictorAccuracyInPaperRange(t *testing.T) {
	// Figure 14: ~80% on two-core workloads. Accept a generous band.
	for _, d := range []Design{DesignDRStrange, DesignDRStrangeRL} {
		var sum float64
		apps := []string{"ycsb0", "soplex", "lbm", "libq"}
		for _, app := range apps {
			sum += eval(t, d, app, 5120).PredictorAccuracy
		}
		avg := sum / float64(len(apps))
		if avg < 0.55 || avg > 0.99 {
			t.Fatalf("%v accuracy %v outside plausible band", d, avg)
		}
	}
}

func TestEnergyReductionDirection(t *testing.T) {
	// Section 8.9: DR-STRaNGe reduces average energy and memory busy
	// time (individual workloads can pay more for extra fill rounds;
	// the paper's 21% is an average).
	apps := []string{"ycsb0", "soplex", "lbm", "mcf", "libq", "povray"}
	var baseE, drsE float64
	var baseBusy, drsBusy int64
	for _, app := range apps {
		b := eval(t, DesignOblivious, app, 5120)
		d := eval(t, DesignDRStrange, app, 5120)
		baseE += b.EnergyJ
		drsE += d.EnergyJ
		baseBusy += b.MemBusyTicks
		drsBusy += d.MemBusyTicks
	}
	if drsE >= baseE {
		t.Fatalf("energy: DR-STRaNGe %v !< baseline %v", drsE, baseE)
	}
	if drsBusy >= baseBusy {
		t.Fatalf("memory busy time: DR-STRaNGe %d !< baseline %d", drsBusy, baseBusy)
	}
}

func TestLowIntensityRNGGentle(t *testing.T) {
	// Section 8.8: at 640 Mb/s the baseline interference is small and
	// DR-STRaNGe's gains are modest.
	w := eval(t, DesignOblivious, "ycsb0", 640)
	if w.NonRNGSlowdown > 2.0 {
		t.Fatalf("640 Mb/s interference too high: %v", w.NonRNGSlowdown)
	}
}

func TestIdleProfileShape(t *testing.T) {
	// Figure 5: low-intensity apps have longer idle periods than
	// streaming ones.
	med := func(app string) float64 {
		lengths := IdleProfile(context.Background(), RunConfig{Instructions: testInstr}, workload.Mix{Name: app, Apps: []string{app}})
		if len(lengths) == 0 {
			t.Fatalf("%s produced no idle periods", app)
		}
		var sum float64
		for _, l := range lengths {
			sum += l
		}
		return sum / float64(len(lengths))
	}
	if med("ycsb0") <= med("libq") {
		t.Fatal("bursty low-MPKI app should have longer idle periods than a streaming H app")
	}
}

func TestRunDeterministic(t *testing.T) {
	mix := workload.Mix{Name: "soplex", Apps: []string{"soplex"}, RNGMbps: 5120}
	a := Run(RunConfig{Design: DesignDRStrange, Mix: mix, Instructions: 10000})
	b := Run(RunConfig{Design: DesignDRStrange, Mix: mix, Instructions: 10000})
	if a.TotalTicks != b.TotalTicks || a.Ctrl.RNGServed != b.Ctrl.RNGServed {
		t.Fatal("simulation not deterministic")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	mix := workload.Mix{Name: "soplex", Apps: []string{"soplex"}, RNGMbps: 5120}
	a := Run(RunConfig{Design: DesignDRStrange, Mix: mix, Instructions: 10000, Seed: 1})
	b := Run(RunConfig{Design: DesignDRStrange, Mix: mix, Instructions: 10000, Seed: 2})
	if a.TotalTicks == b.TotalTicks && a.Ctrl.ReadsServed == b.Ctrl.ReadsServed {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestMulticoreRunCompletes(t *testing.T) {
	groups := workload.FourCoreGroups()
	m := groups["LLHS"][0]
	w := evaluate(t, RunConfig{Design: DesignDRStrange, Mix: m, Instructions: 15000})
	if w.WeightedSpeedup <= 0 {
		t.Fatalf("weighted speedup %v", w.WeightedSpeedup)
	}
	if len(w.Slowdowns) != 4 {
		t.Fatalf("apps = %d, want 4", len(w.Slowdowns))
	}
}

func TestMemoReturnsConsistentResults(t *testing.T) {
	mix := workload.Mix{Name: "ycsb0", Apps: []string{"ycsb0"}, RNGMbps: 5120}
	cfg := RunConfig{Design: DesignDRStrange, Mix: mix, Instructions: 10000}
	a := evaluate(t, cfg)
	b := evaluate(t, cfg)
	if math.Abs(a.NonRNGSlowdown-b.NonRNGSlowdown) > 1e-12 {
		t.Fatal("memoized evaluation differs")
	}
}

func TestInteractiveSystem(t *testing.T) {
	s := NewInteractive(DesignDRStrange, []string{"ycsb0"}, 3)
	s.Idle(300)
	w1, l1 := s.RequestWord()
	_, _ = w1, l1
	if l1 < 0 {
		t.Fatal("negative latency")
	}
	// After idling, the buffer should be warm: next requests are fast.
	_, l2 := s.RequestWord()
	if l2 > 50 {
		t.Fatalf("warm-buffer latency %d too high", l2)
	}
	if s.Now() == 0 {
		t.Fatal("clock did not advance")
	}
	if s.Stats().RNGServed == 0 {
		t.Fatal("no RNG service recorded")
	}
}

// TestInteractiveGoldenByteIdenticalEngines pins every word and latency
// of a fixed request/idle schedule, plus the final clock and controller
// counters, under both engines. testdata/interactive_golden.txt was
// rendered when Interactive still stepped its own controller and cores.
func TestInteractiveGoldenByteIdenticalEngines(t *testing.T) {
	want, err := os.ReadFile("testdata/interactive_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	drive := func(b *strings.Builder, s *Interactive) {
		s.Idle(500)
		for i := 0; i < 96; i++ {
			w, lat := s.RequestWord()
			fmt.Fprintf(b, "%2d %016x %d\n", i, w, lat)
			switch {
			case i%24 == 23:
				s.Idle(int64(150 * (i/24 + 1)))
			case i%5 == 4:
				s.Idle(7)
			}
		}
		fmt.Fprintf(b, "now %d\nstats %+v\n", s.Now(), s.Stats())
	}
	for _, engine := range []string{EngineEvent, EngineTicked} {
		t.Setenv("DRSTRANGE_ENGINE", engine) // NewInteractive runs DefaultEngine
		var b strings.Builder
		b.WriteString("# DR-STRaNGe, background lbm, seed 7\n")
		drive(&b, NewInteractive(DesignDRStrange, []string{"lbm"}, 7))
		b.WriteString("# RNG-Oblivious, no background, seed 42\n")
		drive(&b, NewInteractive(DesignOblivious, nil, 42))
		if got := b.String(); got != string(want) {
			t.Errorf("%s: Interactive trace differs from the golden\n--- got ---\n%s\n--- want ---\n%s", engine, got, want)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "sec6", "sec6-adv", "sec8.8", "sec8.9", "table1"}
	for _, id := range want {
		if Experiments[id] == nil {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if len(ExperimentIDs()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(ExperimentIDs()), len(want))
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{
		ID: "X", Title: "test", Labels: []string{"a", "b"},
		Series: []Series{{Name: "s", Values: []float64{1, 2}}},
		Notes:  []string{"n"},
	}
	out := f.Render()
	for _, want := range []string{"X", "test", "a", "b", "1.000", "2.000", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if f.Headline() != 1.5 {
		t.Fatalf("headline = %v", f.Headline())
	}
	var empty Figure
	if empty.Headline() != 0 {
		t.Fatal("empty figure headline nonzero")
	}
}

func TestRunPanicsOnEmptyMix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Run(RunConfig{Design: DesignOblivious, Mix: workload.Mix{Name: "empty"}, Instructions: 1000})
}
