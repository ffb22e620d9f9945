package sim

import (
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

var (
	memoMu    sync.Mutex
	runMemo   = map[string]*inflight[RunResult]{}
	aloneMemo = map[string]*inflight[AppResult]{}
	warmMemo  = map[string]*inflight[*SystemImage]{}
	secMemo   = map[string]*inflight[*secImage]{}
)

// ResetMemo clears the caches (tests). Safe to call concurrently with
// in-flight computations: they complete against their own entries and
// are simply forgotten by the fresh maps.
func ResetMemo() {
	memoMu.Lock()
	defer memoMu.Unlock()
	runMemo = map[string]*inflight[RunResult]{}
	aloneMemo = map[string]*inflight[AppResult]{}
	warmMemo = map[string]*inflight[*SystemImage]{}
	secMemo = map[string]*inflight[*secImage]{}
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
	// identical results: the differential tests flip it mid-process,
	// and a cache hit across engines would make them vacuously pass.
	// Shards/router shape the built System, so they key like any other
	// config field.
	fmt.Fprintf(&b, "d%d|%s|rng%g|m%s|b%d|i%d|s%d|p%v|t%s|c%d|e%s|sh%d|r%s",
		cfg.Design, strings.Join(cfg.Mix.Apps, ","), cfg.Mix.RNGMbps,
		cfg.Mech.Name, cfg.BufferWords, cfg.Instructions, cfg.Seed, cfg.Priorities, cfg.TweakID,
		cfg.Clients, Engine(), cfg.Shards, cfg.Router)
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
func memoRun(cfg RunConfig) RunResult {
	if cfg.OnIdlePeriod != nil || cfg.Clients > 0 {
		return runGated(cfg)
	}
	return single(func() map[string]*inflight[RunResult] { return runMemo },
		runKey(cfg), func() RunResult { return runGated(cfg) })
}

// warmKey identifies one warm image: everything that shapes the
// background-only warmup — the built System (design, mechanism, buffer,
// background mix, clients, topology, health/fault, seed) plus the
// warmup horizon and the engine (keyed for the same reason runKey keys
// it: the differential tests flip engines mid-process).
// Deliberately absent: the offered load, arrival process, request size,
// and window length — warm images are shared across all of those, which
// is the whole point.
func warmKey(cfg ServeConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d|%s|rng%g|m%s|b%d|s%d|c%d|w%d|sh%d|r%s|h%s|f%s|e%s",
		cfg.Design, strings.Join(cfg.Background.Apps, ","), cfg.Background.RNGMbps,
		cfg.Mech.Name, cfg.BufferWords, cfg.Seed, cfg.Clients, cfg.WarmupTicks,
		cfg.Shards, cfg.Router, cfg.Health, cfg.Fault, Engine())
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
	return single(func() map[string]*inflight[*SystemImage] { return warmMemo },
		warmKey(cfg), func() *SystemImage { return buildWarmImage(cfg) })
}

// warmSecImage returns the memoized warmed two-party security-harness
// image (security.go) for the buffer kind, building it on first use.
func warmSecImage(partitioned bool) *secImage {
	key := "shared"
	if partitioned {
		key = "partitioned"
	}
	return single(func() map[string]*inflight[*secImage] { return secMemo },
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
func aloneResult(app AppResult, shared RunConfig, d Design) AppResult {
	key := fmt.Sprintf("%s|d%d|b%d|m%s|i%d|s%d|e%s", app.Name, d, shared.BufferWords,
		shared.Mech.Name, shared.Instructions, shared.Seed, Engine())
	return single(func() map[string]*inflight[AppResult] { return aloneMemo },
		key, func() AppResult {
			var mix workload.Mix
			if app.IsRNG {
				mix = workload.Mix{Name: "alone-" + app.Name, RNGMbps: mbpsOf(app.Name)}
			} else {
				mix = workload.Mix{Name: "alone-" + app.Name, Apps: []string{app.Name}}
			}
			res := runGated(RunConfig{
				Design:       d,
				Mix:          mix,
				Mech:         shared.Mech,
				BufferWords:  shared.BufferWords,
				Instructions: shared.Instructions,
				Seed:         shared.Seed,
			})
			return res.Apps[0]
		})
}

// mbpsOf parses the throughput back out of an RNG benchmark name.
func mbpsOf(name string) float64 {
	var mbps int
	if _, err := fmt.Sscanf(name, "rng-%dMbps", &mbps); err != nil {
		panic("sim: unparsable RNG app name " + name)
	}
	return float64(mbps)
}
