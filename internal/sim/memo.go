package sim

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"drstrange/internal/cpu"
	"drstrange/internal/dram"
	"drstrange/internal/workload"
)

// Process-wide memoization of simulation runs. Many figures share
// configurations (the 43 dual-core mixes appear in Figures 6, 9, 10,
// 13, ...), and every slowdown needs the same alone-run baselines, so
// each distinct simulation executes exactly once per process.
//
// The cache is singleflight-style for the parallel engine: concurrent
// requests for the same key block on one in-flight execution instead
// of duplicating it (or serializing unrelated runs behind one lock, as
// the earlier global-mutex design did).
//
// Below the runs, the tape table shares the application traces
// themselves: the runs that do execute replay the same streams under
// different designs and mixes, so each stream's ops are generated once
// (tapeTrace).

// inflight is one cache entry: done closes when the computation
// finishes, after which either val and err or panicked are meaningful.
type inflight[T any] struct {
	done     chan struct{}
	val      T
	err      error
	panicked any // re-raised in every waiter if the computation panicked
}

// memoTables holds one singleflight table per memoized value kind.
type memoTables struct {
	run   map[string]*inflight[RunResult]
	alone map[string]*inflight[AppResult]
	warm  map[string]*inflight[*SystemImage]
	tape  map[tapeKey]*inflight[*workload.Tape]
}

func newMemoTables() *memoTables {
	return &memoTables{
		run:   map[string]*inflight[RunResult]{},
		alone: map[string]*inflight[AppResult]{},
		warm:  map[string]*inflight[*SystemImage]{},
		tape:  map[tapeKey]*inflight[*workload.Tape]{},
	}
}

var (
	memoMu sync.Mutex
	memo   = newMemoTables()
)

// ResetMemo clears the caches, trace tapes included (tests,
// benchmarks). Safe to call concurrently with in-flight computations:
// they complete against their own entries (a running System keeps
// reading the tapes it was built with) and are simply forgotten by the
// fresh tables.
func ResetMemo() {
	memoMu.Lock()
	defer memoMu.Unlock()
	memo = newMemoTables() //drstrange:nondet-ok the memo is the one process-wide cache; entries are pure functions of their keys, so a reset only costs hits
}

// single returns the cached or in-flight value and error for key,
// computing them if absent: the first caller registers an entry and
// runs compute, and every concurrent caller for the same key blocks on
// that one execution. An error is cached like a value (computations are
// pure functions of their keys). A panic in compute evicts the entry (a
// later call retries) and is re-raised in the computing caller and all
// waiters. get is evaluated under memoMu so it always sees the current
// map.
func single[K comparable, T any](get func() map[K]*inflight[T], key K, compute func() (T, error)) (T, error) {
	memoMu.Lock()
	m := get()
	if e, ok := m[key]; ok {
		memoMu.Unlock()
		<-e.done
		if e.panicked != nil {
			panic(e.panicked)
		}
		return e.val, e.err
	}
	e := &inflight[T]{done: make(chan struct{})}
	m[key] = e
	memoMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			memoMu.Lock()
			if get()[key] == e {
				delete(get(), key)
			}
			memoMu.Unlock()
			close(e.done)
			panic(r)
		}
	}()
	e.val, e.err = compute()
	close(e.done)
	return e.val, e.err
}

func runKey(cfg RunConfig) string {
	var b strings.Builder
	// The engine is part of the key even though both engines produce
	// identical results: the differential tests run both engines in one
	// process, and a cache hit across engines would make them vacuously
	// pass.
	fmt.Fprintf(&b, "d%d|%s|rng%g|m%s|b%d|i%d|s%d|p%v|pb%t|c%d|e%s|sh%d|r%s|h%+v|f%+v|cl%+v|a%s|ad%d",
		cfg.Design, strings.Join(cfg.Mix.Apps, ","), cfg.Mix.RNGMbps,
		cfg.Mech.Name, cfg.BufferWords, cfg.Instructions, cfg.Seed, cfg.Priorities, cfg.partitioned,
		cfg.Clients, cfg.Engine, cfg.Shards, cfg.Router, cfg.Health, cfg.Fault,
		cfg.Classes, cfg.Admission, cfg.AdmitDepth)
	return b.String()
}

// memoRun executes (or recalls) a shared run. Runs with injection
// clients bypass the cache: their outcome depends on the injection
// schedule, which the key cannot capture.
func memoRun(ctx context.Context, cfg RunConfig) (RunResult, error) {
	if cfg.Clients > 0 {
		return runGated(ctx, cfg)
	}
	return single(func() map[string]*inflight[RunResult] { return memo.run },
		runKey(cfg), func() (RunResult, error) { return runGated(ctx, cfg) })
}

// tapeKey identifies one application trace. A trace is a pure function
// of these four values, so every run that replays the stream can share
// one recording. (A struct rather than a formatted string: Run looks
// a tape up once per application core.)
type tapeKey struct {
	p       workload.Profile
	geom    dram.Geometry
	rowBase int
	seed    uint64
}

// tapeTrace is Run's traceSource: a reader of the process-wide tape of
// the trace p.NewTrace(geom, rowBase, seed) would generate. Tapes hold
// every op any run has read (24 B each) until ResetMemo.
func tapeTrace(p workload.Profile, geom dram.Geometry, rowBase int, seed uint64) cpu.Trace {
	k := tapeKey{p, geom, rowBase, seed}
	// Recording a tape cannot fail: the error is always nil.
	tape, _ := single(func() map[tapeKey]*inflight[*workload.Tape] { return memo.tape },
		k, func() (*workload.Tape, error) { return p.NewTape(geom, rowBase, seed), nil })
	return tape.Reader()
}

// warmKey identifies one warm image: everything that shapes the
// background-only warmup — the built System (design, mechanism, buffer,
// background mix, clients, topology, health/fault, classes/admission,
// seed) plus the warmup horizon and the engine (keyed for the same
// reason runKey keys it: the differential tests run both engines in one
// process). Deliberately absent: the offered load, arrival process,
// request size, and window length — warm images are shared across all
// of those, which is the whole point — and ThinkTicks, since
// closed-loop sweeps never warm-start.
func warmKey(cfg ServeConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d|%s|rng%g|m%s|b%d|s%d|c%d|w%d|sh%d|r%s|h%s|f%s|e%s|cl%v|a%s|ad%d",
		cfg.Design, strings.Join(cfg.Background.Apps, ","), cfg.Background.RNGMbps,
		cfg.Mech.Name, cfg.BufferWords, cfg.Seed, cfg.Clients, cfg.WarmupTicks,
		cfg.Shards, cfg.Router, cfg.Health, cfg.Fault, cfg.Engine,
		cfg.Classes, cfg.Admission, cfg.AdmitDepth)
	return b.String()
}

// warmImage returns the memoized warm image for the configuration,
// building it on first use. Singleflight: concurrent sweep points (and
// concurrent sweeps) over the same configuration share one warm-up.
func warmImage(cfg ServeConfig) *SystemImage {
	// Building a warm image cannot fail: the error is always nil.
	img, _ := single(func() map[string]*inflight[*SystemImage] { return memo.warm },
		warmKey(cfg), func() (*SystemImage, error) { return buildWarmImage(cfg), nil })
	return img
}

// aloneResult returns the application's single-core run on design d
// with the same TRNG mechanism and instruction budget.
//
// Two distinct baselines use this: execution-time slowdowns normalize
// to alone-on-the-RNG-oblivious-baseline (the paper's Figures 6, 8,
// 13, ... explicitly compare against "single-core execution" of the
// baseline system, which is how DR-STRaNGe's RNG bars fall below 1.0),
// while the unfairness metric's MCPI_alone uses alone-on-the-same-
// design (memory-related slowdown measures interference added by
// sharing, not design improvements).
//
// The RNG benchmark's baseline runs at exactly the shared mix's rate
// and keys on it: its display name rounds the rate to whole Mb/s, so
// it cannot stand in for the rate.
func aloneResult(ctx context.Context, app AppResult, shared RunConfig, d Design) (AppResult, error) {
	var rate float64 // 0 for every app but the RNG benchmark
	if app.IsRNG {
		rate = shared.Mix.RNGMbps
	}
	key := fmt.Sprintf("%s|r%g|d%d|b%d|m%s|i%d|s%d|e%s", app.Name, rate, d, shared.BufferWords,
		shared.Mech.Name, shared.Instructions, shared.Seed, shared.Engine)
	return single(func() map[string]*inflight[AppResult] { return memo.alone },
		key, func() (AppResult, error) {
			mix := workload.Mix{Name: "alone-" + app.Name, Apps: []string{app.Name}}
			if app.IsRNG {
				mix = workload.Mix{Name: "alone-" + app.Name, RNGMbps: rate}
			}
			res, err := runGated(ctx, RunConfig{
				Design:       d,
				Mix:          mix,
				Mech:         shared.Mech,
				BufferWords:  shared.BufferWords,
				Instructions: shared.Instructions,
				Seed:         shared.Seed,
				Engine:       shared.Engine,
			})
			if err != nil {
				return AppResult{}, err
			}
			return res.Apps[0], nil
		})
}
