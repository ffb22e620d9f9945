package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drstrange/internal/workload"
)

// TestWithWorkersSizing pins the per-context pool size: a positive
// count wins, zero and negative counts select GOMAXPROCS, and the
// simulation semaphore is sized like the fan-out.
func TestWithWorkersSizing(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, want int }{{5, 5}, {1, 1}, {0, procs}, {-3, procs}} {
		p := poolOf(WithWorkers(context.Background(), tc.n))
		if p.workers != tc.want || cap(p.slots) != tc.want {
			t.Errorf("WithWorkers(%d): %d workers, %d slots; want %d", tc.n, p.workers, cap(p.slots), tc.want)
		}
	}
	if poolOf(context.Background()) != defaultPool() {
		t.Error("a context without a pool must use the default pool")
	}
}

// TestPoolBoundPerContext runs two nested fan-outs at once, on a
// one-worker and a four-worker context, with jobs that hold their pool's
// simulation slot while they sleep. Each pool must bound its own jobs in
// flight — the nested fan-out spawns more goroutines than slots — and
// neither may borrow the other's bound.
func TestPoolBoundPerContext(t *testing.T) {
	fanOut := func(ctx context.Context) int32 {
		p := poolOf(ctx)
		var live, peak atomic.Int32
		parDoCtx(ctx, 4, func(int) {
			parDoCtx(ctx, 4, func(int) {
				p.acquire()
				defer p.release()
				n := live.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				live.Add(-1)
			})
		})
		return peak.Load()
	}
	var one, four int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); one = fanOut(WithWorkers(context.Background(), 1)) }()
	go func() { defer wg.Done(); four = fanOut(WithWorkers(context.Background(), 4)) }()
	wg.Wait()
	if one != 1 {
		t.Errorf("one-worker pool peaked at %d simulations in flight", one)
	}
	if four < 2 || four > 4 {
		t.Errorf("four-worker pool peaked at %d simulations in flight, want 2..4", four)
	}
}

func TestParDoCoversAllIndicesInOrderSlots(t *testing.T) {
	const n = 100
	out := make([]int, n)
	parDoCtx(WithWorkers(context.Background(), 8), n, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestParDoPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in a job did not propagate")
		}
	}()
	parDoCtx(WithWorkers(context.Background(), 4), 16, func(i int) {
		if i == 5 {
			panic("job 5 exploded")
		}
	})
}

// TestSingleflightHammersOneRunKey fires many goroutines at one runKey
// of the run table and asserts the simulation executed exactly once
// (the compute counts its executions) with every caller seeing the
// same result. Run under -race this is the concurrency guard for the
// memo.
func TestSingleflightHammersOneRunKey(t *testing.T) {
	ResetMemo()
	defer ResetMemo()

	var executions atomic.Int32
	mix := workload.Mix{Name: "soplex", Apps: []string{"soplex"}, RNGMbps: 5120}
	cfg := RunConfig{Design: DesignDRStrange, Mix: mix, Instructions: 8000}.Normalized()
	key := runKey(cfg)
	ctx := WithWorkers(context.Background(), 8)

	const goroutines = 32
	results := make([]RunResult, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], _ = single(func() map[string]*inflight[RunResult] { return memo.run }, key, func() (RunResult, error) {
				executions.Add(1)
				return runGated(ctx, cfg)
			})
		}()
	}
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("shared run executed %d times, want exactly 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if results[g].TotalTicks != results[0].TotalTicks ||
			results[g].Ctrl.RNGServed != results[0].Ctrl.RNGServed {
			t.Fatalf("goroutine %d saw a different result", g)
		}
	}
}

// TestSingleflightPanicEvictsAndRetries: a panicking computation must
// not wedge the cache — waiters see the panic, and a later call
// re-executes.
func TestSingleflightPanicEvictsAndRetries(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	key := "panic-probe"
	get := func() map[string]*inflight[int] { return panicProbe }
	calls := 0
	compute := func() (int, error) {
		calls++
		if calls == 1 {
			panic("first attempt fails")
		}
		return 42, nil
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first single() call did not panic")
			}
		}()
		single(get, key, compute)
	}()
	if got, _ := single(get, key, compute); got != 42 {
		t.Fatalf("retry returned %d, want 42", got)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

var panicProbe = map[string]*inflight[int]{}

// TestParallelOutputByteIdentical renders a representative multi-level
// sweep with one worker and with many, under each engine, asserting
// byte-identical figures (the worker pool's determinism requirement).
func TestParallelOutputByteIdentical(t *testing.T) {
	run := func(engine string, workers int) string {
		ResetMemo()
		ctx := WithWorkers(context.Background(), workers)
		base := RunConfig{Instructions: 6000, Engine: engine}
		var figs []Figure
		figs = append(figs, Section8_8(ctx, base)...)
		figs = append(figs, Figure10(ctx, base)...)
		return RenderAll(figs)
	}
	for _, engine := range []string{EngineEvent, EngineTicked} {
		seq := run(engine, 1)
		par := run(engine, 8)
		if seq != par {
			t.Fatalf("%s: parallel output differs from sequential:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", engine, seq, par)
		}
	}
	ResetMemo()
}

// TestEvaluateConcurrentMixedKeys exercises the pool with many
// distinct and overlapping keys at once.
func TestEvaluateConcurrentMixedKeys(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	apps := []string{"soplex", "lbm", "ycsb0", "libq"}
	var cfgs []RunConfig
	for _, app := range apps {
		for _, d := range []Design{DesignOblivious, DesignDRStrange} {
			cfgs = append(cfgs, RunConfig{
				Design:       d,
				Mix:          workload.Mix{Name: app, Apps: []string{app}, RNGMbps: 5120},
				Instructions: 6000,
			})
		}
	}
	// Duplicate the whole list so every key is requested twice,
	// concurrently.
	cfgs = append(cfgs, cfgs...)
	res := evalAllCtx(WithWorkers(context.Background(), 6), cfgs)
	half := len(res) / 2
	for i := 0; i < half; i++ {
		if res[i].NonRNGSlowdown != res[half+i].NonRNGSlowdown {
			t.Fatalf("duplicate config %d diverged: %v vs %v",
				i, res[i].NonRNGSlowdown, res[half+i].NonRNGSlowdown)
		}
	}
}
