package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel experiment engine: a bounded worker pool that fans out
// independent simulation jobs. Figure drivers submit jobs with
// parDoCtx/evalAllCtx and write result i into slot i of a pre-sized
// slice, so output order never depends on goroutine scheduling and the
// parallel engine renders byte-identical figures to the sequential one.
//
// The pool is a per-call value carried on the context (WithWorkers),
// not process state: concurrent callers with different bounds each get
// their own. A context without one uses the process default pool,
// sized once from DRSTRANGE_WORKERS (else GOMAXPROCS) and never
// resized. Two layers bound the concurrency:
//
//   - parDoCtx spawns at most workers goroutines per call site, and
//   - acquire gates the actual simulations, so nested fan-out (a
//     parallel figure driver whose Evaluate jobs fan out their own
//     alone-run baselines) never runs more than workers simulations at
//     once.

// pool bounds one caller's simulations: workers goroutines per fan-out,
// and a semaphore of the same size over the simulations themselves.
type pool struct {
	workers int
	slots   chan struct{}
}

// newPool sizes a pool: n, or DRSTRANGE_WORKERS, or GOMAXPROCS.
func newPool(n int) *pool {
	if n <= 0 {
		n = envWorkers()
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &pool{workers: n, slots: make(chan struct{}, n)}
}

type poolKey struct{}

// WithWorkers returns a copy of ctx whose simulations run on a pool of
// their own with n workers; n <= 0 selects DRSTRANGE_WORKERS, then
// GOMAXPROCS. Output is byte-identical at any count.
func WithWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, poolKey{}, newPool(n))
}

// defaultPool serves contexts that carry no pool. It is built on first
// use and never written again.
var defaultPool = sync.OnceValue(func() *pool { return newPool(0) })

// poolOf returns the pool ctx carries, or the process default.
func poolOf(ctx context.Context) *pool {
	if p, ok := ctx.Value(poolKey{}).(*pool); ok {
		return p
	}
	return defaultPool()
}

// acquire blocks until one of the pool's simulation slots is free.
func (p *pool) acquire() { p.slots <- struct{}{} }

// release frees a slot taken by acquire.
func (p *pool) release() { <-p.slots }

// runGated executes one simulation under ctx's pool bound.
func runGated(ctx context.Context, cfg RunConfig) RunResult {
	p := poolOf(ctx)
	p.acquire()
	defer p.release()
	return Run(cfg)
}

// parDoCtx runs f(0), ..., f(n-1) across up to poolOf(ctx).workers
// goroutines and returns when all have completed. With one worker (or
// one job) it degenerates to the plain sequential loop. A panic in any
// job is re-raised in the caller after the remaining workers drain.
//
// Cancellation is cooperative: once ctx is done, workers stop claiming
// new jobs and the call returns after in-flight jobs finish. Jobs never
// start after cancellation, so a cancelled fan-out leaves unclaimed
// slots untouched; callers detect the partial result by consulting
// ctx.Err(). Every goroutine this function spawns has joined by the
// time it returns — cancellation never leaks workers.
func parDoCtx(ctx context.Context, n int, f func(i int)) {
	if n <= 0 {
		return
	}
	g := poolOf(ctx).workers
	if g > n {
		g = n
	}
	if g <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			f(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					f(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// evalAll evaluates every configuration on the default pool, preserving
// input order.
func evalAll(cfgs []RunConfig) []WorkloadResult {
	return evalAllCtx(context.Background(), cfgs)
}

// evalAllCtx is evalAll on ctx's pool: cancellation stops claiming new
// configurations (and each Evaluate's own baseline fan-out), so the
// returned slice is only meaningful when ctx.Err() == nil.
func evalAllCtx(ctx context.Context, cfgs []RunConfig) []WorkloadResult {
	out := make([]WorkloadResult, len(cfgs))
	parDoCtx(ctx, len(cfgs), func(i int) { out[i], _ = EvaluateCtx(ctx, cfgs[i]) })
	return out
}
