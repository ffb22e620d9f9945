package sim

import (
	"context"
	"fmt"
	"strings"
	"sync"

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

// inflight is one cache entry: done closes when the computation
// finishes, after which exactly one of val or panicked is meaningful.
type inflight[T any] struct {
	done     chan struct{}
	val      T
	panicked any // re-raised in every waiter if the computation panicked
}

// memoTables holds one singleflight table per memoized value kind.
type memoTables struct {
	run   map[string]*inflight[RunResult]
	alone map[string]*inflight[AppResult]
	warm  map[string]*inflight[*SystemImage]
	sec   map[string]*inflight[*secImage]
}

func newMemoTables() *memoTables {
	return &memoTables{
		run:   map[string]*inflight[RunResult]{},
		alone: map[string]*inflight[AppResult]{},
		warm:  map[string]*inflight[*SystemImage]{},
		sec:   map[string]*inflight[*secImage]{},
	}
}

var (
	memoMu sync.Mutex
	memo   = newMemoTables()
)

// ResetMemo clears the caches (tests, benchmarks). Safe to call
// concurrently with in-flight computations: they complete against their
// own entries and are simply forgotten by the fresh tables.
func ResetMemo() {
	memoMu.Lock()
	defer memoMu.Unlock()
	memo = newMemoTables() //drstrange:nondet-ok the memo is the one process-wide cache; entries are pure functions of their keys, so a reset only costs hits
}

// single returns the cached or in-flight value for key, computing it
// if absent: the first caller registers an entry and runs compute, and
// every concurrent caller for the same key blocks on that one
// execution. A panic in compute evicts the entry (a later call
// retries) and is re-raised in the computing caller and all waiters.
// get is evaluated under memoMu so it always sees the current map.
func single[T any](get func() map[string]*inflight[T], key string, compute func() T) T {
	memoMu.Lock()
	m := get()
	if e, ok := m[key]; ok {
		memoMu.Unlock()
		<-e.done
		if e.panicked != nil {
			panic(e.panicked)
		}
		return e.val
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
	e.val = compute()
	close(e.done)
	return e.val
}

func runKey(cfg RunConfig) string {
	var b strings.Builder
	// The engine is part of the key even though both engines produce
	// identical results: the differential tests run both engines in one
	// process, and a cache hit across engines would make them vacuously
	// pass.
	// Shards/router shape the built System, so they key like any other
	// config field.
	fmt.Fprintf(&b, "d%d|%s|rng%g|m%s|b%d|i%d|s%d|p%v|t%s|c%d|e%s|sh%d|r%s",
		cfg.Design, strings.Join(cfg.Mix.Apps, ","), cfg.Mix.RNGMbps,
		cfg.Mech.Name, cfg.BufferWords, cfg.Instructions, cfg.Seed, cfg.Priorities, cfg.TweakID,
		cfg.Clients, cfg.Engine, cfg.Shards, cfg.Router)
	if cfg.Health.Enabled {
		// Health monitoring changes the built System; keyed only when
		// enabled so every historical key keeps its exact bytes.
		fmt.Fprintf(&b, "|h%+v|f%+v", cfg.Health, cfg.Fault)
	}
	if len(cfg.Classes) > 0 || cfg.Admission != AdmissionNone {
		// Classes and admission shape the built System; keyed only when
		// configured, like Health, so every historical key keeps its
		// exact bytes.
		fmt.Fprintf(&b, "|cl%+v|a%s|ad%d", cfg.Classes, cfg.Admission, cfg.AdmitDepth)
	}
	return b.String()
}

// memoRun executes (or recalls) a shared run. Runs with an idle-period
// callback bypass the cache (the caller wants the side effects), as do
// runs with injection clients (the outcome depends on the injection
// schedule, which the key cannot capture).
func memoRun(ctx context.Context, cfg RunConfig) RunResult {
	if cfg.OnIdlePeriod != nil || cfg.Clients > 0 {
		return runGated(ctx, cfg)
	}
	return single(func() map[string]*inflight[RunResult] { return memo.run },
		runKey(cfg), func() RunResult { return runGated(ctx, cfg) })
}

// warmKey identifies one warm image: everything that shapes the
// background-only warmup — the built System (design, mechanism, buffer,
// background mix, clients, topology, health/fault, seed) plus the
// warmup horizon and the engine (keyed for the same reason runKey keys
// it: the differential tests run both engines in one process).
// Deliberately absent: the offered load, arrival process, request size,
// and window length — warm images are shared across all of those, which
// is the whole point.
func warmKey(cfg ServeConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d|%s|rng%g|m%s|b%d|s%d|c%d|w%d|sh%d|r%s|h%s|f%s|e%s",
		cfg.Design, strings.Join(cfg.Background.Apps, ","), cfg.Background.RNGMbps,
		cfg.Mech.Name, cfg.BufferWords, cfg.Seed, cfg.Clients, cfg.WarmupTicks,
		cfg.Shards, cfg.Router, cfg.Health, cfg.Fault, cfg.Engine)
	if len(cfg.Classes) > 0 || cfg.Admission != AdmissionNone {
		// Keyed only when configured, like runKey's class gate, so every
		// historical warm-image key keeps its exact bytes. (Closed-loop
		// sweeps never warm-start, so ThinkTicks needs no key.)
		fmt.Fprintf(&b, "|cl%v|a%s|ad%d", cfg.Classes, cfg.Admission, cfg.AdmitDepth)
	}
	return b.String()
}

// warmImage returns the memoized warm image for the configuration,
// building it on first use. Singleflight: concurrent sweep points (and
// concurrent sweeps) over the same configuration share one warm-up.
func warmImage(cfg ServeConfig) *SystemImage {
	return single(func() map[string]*inflight[*SystemImage] { return memo.warm },
		warmKey(cfg), func() *SystemImage { return buildWarmImage(cfg) })
}

// warmSecImage returns the memoized warmed two-party security-harness
// image (security.go) for the buffer kind, building it on first use.
func warmSecImage(partitioned bool) *secImage {
	key := "shared"
	if partitioned {
		key = "partitioned"
	}
	return single(func() map[string]*inflight[*secImage] { return memo.sec },
		key, func() *secImage { return buildSecImage(partitioned) })
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
func aloneResult(ctx context.Context, app AppResult, shared RunConfig, d Design) AppResult {
	var rate float64 // 0 for every app but the RNG benchmark
	if app.IsRNG {
		rate = shared.Mix.RNGMbps
	}
	key := fmt.Sprintf("%s|r%g|d%d|b%d|m%s|i%d|s%d|e%s", app.Name, rate, d, shared.BufferWords,
		shared.Mech.Name, shared.Instructions, shared.Seed, shared.Engine)
	return single(func() map[string]*inflight[AppResult] { return memo.alone },
		key, func() AppResult {
			mix := workload.Mix{Name: "alone-" + app.Name, Apps: []string{app.Name}}
			if app.IsRNG {
				mix = workload.Mix{Name: "alone-" + app.Name, RNGMbps: rate}
			}
			res := runGated(ctx, RunConfig{
				Design:       d,
				Mix:          mix,
				Mech:         shared.Mech,
				BufferWords:  shared.BufferWords,
				Instructions: shared.Instructions,
				Seed:         shared.Seed,
				Engine:       shared.Engine,
			})
			return res.Apps[0]
		})
}
