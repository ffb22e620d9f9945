package sim

import (
	"reflect"
	"sort"
	"testing"

	"drstrange/internal/workload"
)

// TestSystemStepToSegments is the steppable-core property test: slicing
// a run into StepTo segments — prime-sized chunks, single ticks, or one
// big call — must produce deeply equal Results under both engines. This
// is what lets every driver (Run, the figure sweeps, the open-loop
// serving layer) share one System core.
func TestSystemStepToSegments(t *testing.T) {
	cases := []RunConfig{
		{Design: DesignOblivious, Mix: workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120}, Instructions: 6000},
		{Design: DesignDRStrange, Mix: workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120}, Instructions: 6000},
		{Design: DesignGreedy, Mix: workload.Mix{Name: "ycsb0+rng", Apps: []string{"ycsb0"}, RNGMbps: 2560}, Instructions: 6000},
	}
	// Prime step sizes exercise boundaries that never align with
	// refresh intervals, RNG rounds, or each other.
	steps := []int64{997, 313, 7919}
	for _, engine := range []string{EngineTicked, EngineEvent} {
		for _, cfg := range cases {
			cfg.Engine = engine
			stepped := func(step func(i int) int64) RunResult {
				sys := NewSystem(cfg)
				var cursor int64
				for i := 0; !sys.Done(); i++ {
					cursor += step(i)
					sys.StepTo(cursor - 1)
					if cursor > cfg.Instructions*2000 {
						t.Fatalf("%s/%v: stepped run never completed", engine, cfg.Design)
					}
				}
				return sys.Result()
			}
			whole := Run(cfg)
			chunked := stepped(func(int) int64 { return steps[0] })
			mixed := stepped(func(i int) int64 { return steps[i%len(steps)] })
			if !reflect.DeepEqual(whole, chunked) {
				t.Errorf("%s/%v: prime-chunked StepTo diverges from Run\n whole:   %+v\n chunked: %+v",
					engine, cfg.Design, whole, chunked)
			}
			if !reflect.DeepEqual(whole, mixed) {
				t.Errorf("%s/%v: mixed-boundary StepTo diverges from Run\n whole: %+v\n mixed: %+v",
					engine, cfg.Design, whole, mixed)
			}
		}
	}
}

// TestSystemStepSingleTicks walks a short run one Step() at a time and
// requires the same Result as one StepTo — the extreme slicing, which
// forces the event engine to execute every tick it would have skipped.
func TestSystemStepSingleTicks(t *testing.T) {
	cfg := RunConfig{
		Design:       DesignDRStrange,
		Mix:          workload.Mix{Name: "rng-alone", RNGMbps: 5120},
		Instructions: 2000,
	}
	for _, engine := range []string{EngineTicked, EngineEvent} {
		cfg.Engine = engine
		whole := Run(cfg)
		sys := NewSystem(cfg)
		for !sys.Done() {
			sys.Step()
		}
		single := sys.Result()
		if !reflect.DeepEqual(whole, single) {
			t.Errorf("%s: single-tick stepping diverges from Run", engine)
		}
	}
}

// injectionTimestamps runs a System with a deterministic injection
// schedule and returns the per-request completion records.
func injectionTimestamps(t *testing.T, engine string, d Design, bg workload.Mix, stepSize int64) []InjectedRequest {
	t.Helper()
	sys := NewSystem(RunConfig{
		Design:       d,
		Mix:          bg,
		Instructions: serveTarget,
		Clients:      4,
		Engine:       engine,
	})
	var reqs []*InjectedRequest
	at := int64(100)
	for i := 0; i < 200; i++ {
		reqs = append(reqs, sys.InjectRNG(i%4, at, 1+i%2))
		at += int64(13 + i%37) // deterministic, uneven spacing
	}
	end := at + 50_000
	for cursor := int64(0); cursor < end; cursor += stepSize {
		to := cursor + stepSize
		if to > end {
			to = end
		}
		sys.StepTo(to - 1)
	}
	out := make([]InjectedRequest, len(reqs))
	for i, r := range reqs {
		if !r.Done {
			t.Fatalf("request %d never completed", i)
		}
		out[i] = *r
	}
	return out
}

// TestSystemInjectionEngineDifferential requires injected-request
// completion timestamps to be identical under the ticked and event
// engines and under different StepTo slicings: the injection port is a
// component of the event contract like any other.
func TestSystemInjectionEngineDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Design
		bg   workload.Mix
	}{
		{"oblivious-dedicated", DesignOblivious, workload.Mix{}},
		{"drstrange-dedicated", DesignDRStrange, workload.Mix{}},
		{"drstrange-contended", DesignDRStrange, workload.Mix{Name: "soplex", Apps: []string{"soplex"}}},
	} {
		ticked := injectionTimestamps(t, EngineTicked, tc.d, tc.bg, 1<<40)
		event := injectionTimestamps(t, EngineEvent, tc.d, tc.bg, 1<<40)
		chunked := injectionTimestamps(t, EngineEvent, tc.d, tc.bg, 101)
		if !reflect.DeepEqual(ticked, event) {
			t.Errorf("%s: injection timestamps diverge between engines", tc.name)
		}
		if !reflect.DeepEqual(event, chunked) {
			t.Errorf("%s: injection timestamps depend on StepTo slicing", tc.name)
		}
		served := 0
		for _, r := range event {
			if r.FinishTick > 0 {
				served++
			}
		}
		if served != len(event) {
			t.Errorf("%s: %d/%d requests completed", tc.name, served, len(event))
		}
	}
}

// TestSystemCompletionHookContract pins the OnInjectionComplete
// contract: the hook fires exactly once per injected request, at its
// completion, with the completion fields final and identical to what a
// hook-less run's retained handles would show; the O(1) outstanding
// count drains to zero; and recycled handles keep the port's live-set
// bounded (freelist reuse kicks in once completions overlap arrivals).
func TestSystemCompletionHookContract(t *testing.T) {
	newSys := func() *System {
		return NewSystem(RunConfig{
			Design:       DesignDRStrange,
			Instructions: serveTarget,
			Clients:      4,
		})
	}
	// drive feeds the same injection schedule in batches interleaved
	// with stepping (so completions overlap later arrivals, the
	// recycling regime) and drains the system. onInject observes each
	// returned handle.
	drive := func(sys *System, onInject func(*InjectedRequest)) {
		at, i := int64(100), 0
		for phase := 0; phase < 4; phase++ {
			for n := 0; n < 50; n++ {
				onInject(sys.InjectRNG(i%4, at, 1+i%2))
				i++
				at += int64(13 + i%37)
			}
			sys.StepTo(at - 1) // leave now == at: the next batch starts there
		}
		sys.StepTo(at + 50_000)
	}

	// Retained-handle reference run (no hook): handles stay valid.
	ref := newSys()
	var handles []*InjectedRequest
	drive(ref, func(r *InjectedRequest) { handles = append(handles, r) })
	want := make([]InjectedRequest, len(handles))
	for i, r := range handles {
		if !r.Done {
			t.Fatalf("reference request %d never completed", i)
		}
		want[i] = *r
	}

	sys := newSys()
	var got []InjectedRequest
	sys.OnInjectionComplete(func(r *InjectedRequest) {
		if !r.Done || r.FinishTick < r.SubmitTick {
			t.Errorf("hook fired with non-final fields: %+v", *r)
		}
		got = append(got, *r)
	})
	drive(sys, func(*InjectedRequest) {})
	if sys.OutstandingInjections() != 0 {
		t.Fatalf("OutstandingInjections = %d after drain, want 0", sys.OutstandingInjections())
	}
	if len(got) != len(want) {
		t.Fatalf("hook fired %d times for %d requests", len(got), len(want))
	}
	// Hook order is completion order; the reference is injection order.
	// SubmitTicks are unique here, so sort both by SubmitTick and
	// require identical records.
	sort.Slice(got, func(i, j int) bool { return got[i].SubmitTick < got[j].SubmitTick })
	sort.Slice(want, func(i, j int) bool { return want[i].SubmitTick < want[j].SubmitTick })
	if !reflect.DeepEqual(got, want) {
		t.Error("hook-observed completions differ from retained-handle completions")
	}
	if sys.RecycledInjections() == 0 {
		t.Error("no handles were recycled despite completions overlapping arrivals")
	}
	if peak := sys.PeakOutstandingInjections(); peak <= 0 || peak >= 200 {
		t.Errorf("PeakOutstandingInjections = %d, want in (0, 200): the live set must stay bounded", peak)
	}
}

// TestSystemInjectionValidation pins the injection port's contract:
// clients must be reserved, schedules must be time-ordered, and a
// System without cores or clients is rejected.
func TestSystemInjectionValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("empty system", func() {
		NewSystem(RunConfig{Design: DesignDRStrange, Instructions: 1000})
	})
	sys := NewSystem(RunConfig{Design: DesignDRStrange, Instructions: serveTarget, Clients: 2})
	expectPanic("client out of range", func() { sys.InjectRNG(2, 10, 1) })
	expectPanic("zero words", func() { sys.InjectRNG(0, 10, 0) })
	sys.InjectRNG(0, 10, 1)
	expectPanic("out of order", func() { sys.InjectRNG(0, 5, 1) })
	sys.StepTo(99)
	expectPanic("past tick", func() { sys.InjectRNG(0, 50, 1) })
}
