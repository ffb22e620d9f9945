package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Regression tests for the abort path of the open-loop serving layer:
// before the context plumbing, neither the worker pool nor ServeLoad
// had any way to stop a sweep mid-flight — a caller that lost interest
// still paid for every remaining point. A cancelled context must now
// stop a multi-point sweep early, mid-point (via the sliced StepTo
// walk), and without leaking pool goroutines. Run under -race by CI.

// cancelSweepConfig is sized so the full sweep would take far longer
// than any plausible test timeout: an enormous measurement window per
// point, several points. Only cancellation can finish quickly. Every
// load stays at or below the 2560 Mb/s streaming capacity: past it, a
// window this long queues more than MaxBacklog requests, a sweep
// ServeLoadCtx rejects before running.
func cancelSweepConfig() (ServeConfig, []float64) {
	cfg := ServeConfig{
		Design:      DesignDRStrange,
		WarmupTicks: 0,
		WindowTicks: 200_000_000, // ~1 s of simulated time per point
		Seed:        11,
	}
	loads := []float64{160, 320, 640, 960, 1280, 1920, 2240, 2560}
	return cfg, loads
}

func TestServeLoadCtxCancelAbortsSweepEarly(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg, loads := cancelSweepConfig()
	ctx, cancel := context.WithCancel(WithWorkers(context.Background(), 4))

	type outcome struct {
		pts []ServePoint
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		pts, err := ServeLoadCtx(ctx, cfg, loads)
		done <- outcome{pts, err}
	}()

	// Let the sweep get properly mid-flight before pulling the plug.
	time.Sleep(100 * time.Millisecond)
	cancel()

	var got outcome
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return within 30s (full sweep would run for minutes)")
	}
	if got.err != context.Canceled {
		t.Fatalf("ServeLoadCtx error = %v, want context.Canceled", got.err)
	}
	if got.pts != nil {
		t.Fatalf("cancelled sweep exposed partial points: %v", got.pts)
	}

	// The pool workers and the point simulations must all have exited:
	// poll because the last workers unwind asynchronously after the
	// fan-out returns.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeCurvesCtxCancelPropagates exercises the nested fan-out
// (designs -> load points -> sliced StepTo) end to end.
func TestServeCurvesCtxCancelPropagates(t *testing.T) {
	cfg, loads := cancelSweepConfig()
	ctx, cancel := context.WithCancel(WithWorkers(context.Background(), 4))

	errc := make(chan error, 1)
	go func() {
		_, _, err := ServeCurvesCtx(ctx, []Design{DesignOblivious, DesignDRStrange}, cfg, loads, nil)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("ServeCurvesCtx error = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled curve sweep did not return within 30s")
	}
}

// TestServeLoadCtxCompletesUncancelled pins the other side of the
// contract: with a live context the ctx-aware path returns exactly what
// ServeLoad returns.
func TestServeLoadCtxCompletesUncancelled(t *testing.T) {
	cfg := ServeConfig{Design: DesignDRStrange, WarmupTicks: 2_000, WindowTicks: 10_000, Seed: 3}
	loads := []float64{320, 1280}
	want := ServeLoad(cfg, loads)
	got, err := ServeLoadCtx(context.Background(), cfg, loads)
	if err != nil {
		t.Fatalf("ServeLoadCtx error = %v", err)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("point %d differs: ServeLoad %+v vs ServeLoadCtx %+v", i, want[i], got[i])
		}
	}
}

// TestEvaluateCtxCancelled pins the closed-loop path: a cancelled
// context surfaces as an error instead of a bogus result.
func TestEvaluateCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvaluateCtx(ctx, RunConfig{
		Design:       DesignDRStrange,
		Mix:          twoCoreMix("soplex", 5120),
		Instructions: 5000,
	})
	if err != context.Canceled {
		t.Fatalf("EvaluateCtx error = %v, want context.Canceled", err)
	}
}
