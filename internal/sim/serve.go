package sim

import (
	"context"
	"fmt"
	"math"
	"strings"

	"drstrange/internal/dram"
	"drstrange/internal/metrics"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// The open-loop serving layer: an offered-load sweep over the steppable
// System core. Where the figure drivers replay closed-loop instruction
// traces to completion, ServeLoad fixes the request arrival process —
// N simulated clients submitting RNG requests through the injection
// port at a configured aggregate rate — and measures what the paper's
// designs deliver under that pressure: served throughput, the full
// request-latency tail (p50/p95/p99/p999), and the buffer hit rate.
// This is the open-loop generalization of Figure 2, and the scenario
// family the paper never plots: tail latency of DR-STRaNGe's buffering
// against on-demand generation under contention.

// TickNanos converts memory-cycle latencies to wall-clock nanoseconds
// (one memory cycle is 5 ns; see internal/trng).
const TickNanos = 1e9 / trng.MemCyclesPerSecond

// MaxClients caps a serve point's request clients: the open-loop
// Clients setting and the closed-loop population alike. Every client
// is a controller core id, so the cap bounds the per-core tables
// NewSystem and the closed-loop scheduler allocate. Scenario
// validation enforces it on Clients and ServeLoadCtx on populations.
const MaxClients = 1 << 16

// MaxBacklog caps an open-loop serve point's worst-case backlog: the
// requests its arrivals queue beyond the shards' streaming capacity
// (Mech.StreamMbps × Shards, 2560 Mb/s per D-RaNGe shard) over warmup
// plus window. Each outstanding request holds about 200 B, so the cap
// keeps a point's live set under a gigabyte; ServeLoadCtx rejects a
// point past it instead of running out of memory. A load at or below
// capacity has no backlog and passes whatever its window.
const MaxBacklog = 1 << 22

// MaxServeTicks caps a serve point's warmup and its window, each. It
// keeps the point's drain horizon, warmup plus 21 windows (at most
// 22 × 2^56 < 2^61), below the engine's 1<<62 no-event sentinel; larger
// values overflow it. Scenario validation enforces it.
const MaxServeTicks = 1 << 56

// MaxRequestBytes caps the size of one serve request (8192 words),
// keeping the request's bit count far from int overflow. Scenario
// validation enforces it.
const MaxRequestBytes = 1 << 16

// ServeConfig describes one open-loop serving experiment, shared by
// every point of an offered-load sweep.
type ServeConfig struct {
	Design Design
	// Mech is the TRNG mechanism; the zero value selects D-RaNGe.
	Mech trng.Mechanism
	// BufferWords sizes the random number buffer; <= 0 selects the
	// design default.
	BufferWords int
	// Background is the contention workload sharing the memory system
	// with the served requests (may be empty: a dedicated RNG system).
	// Background cores run for the whole experiment; they are load, not
	// measurement.
	Background workload.Mix
	// Clients is the number of simulated request clients (at most
	// MaxClients); <= 0 selects 8. On the open-loop path clients matter
	// for per-core bookkeeping (priorities, RNG-app marking and buffer
	// partitioning), not for the arrival process, which is aggregate. On
	// the closed-loop path (ThinkTicks > 0) Clients is ignored: the
	// population is sized from the offered load by Little's law, so every
	// sweep point targets its configured rate; it must round to at least
	// one client and must not exceed MaxClients either.
	Clients int
	// ThinkTicks switches the experiment to a closed-loop client
	// population with this mean exponential think time in ticks
	// (workload.ClosedLoop): each client submits, waits for completion,
	// thinks, and submits again; shed/failed requests retry with capped
	// exponential backoff. <= 0 — the default — keeps the historical
	// open-loop arrival process byte for byte.
	ThinkTicks int64
	// Classes names the request classes cycled across submissions
	// (ClassNames: keygen, standard, bulk); request i carries class
	// i mod len(Classes). Empty leaves every request unclassed — the
	// historical path byte for byte.
	Classes []string
	// Admission names the per-shard admission policy (AdmissionNames:
	// none, drop-lowest-class, threshold-by-depth); "" selects none.
	Admission string
	// AdmitDepth is the per-shard queue-depth admission bound; <= 0
	// selects DefaultAdmitDepth. Ignored when Admission is none.
	AdmitDepth int
	// RequestBytes is the size of one RNG request (at most
	// MaxRequestBytes); <= 0 selects 8 (one 64-bit word). Larger
	// requests submit ceil(RequestBytes/8) words and complete when the
	// last word does.
	RequestBytes int
	// Arrival names the arrival process (workload.ArrivalPoisson,
	// ArrivalBursty, ArrivalDiurnal); "" selects Poisson.
	Arrival string
	// Burstiness shapes the bursty process (ignored by the others):
	// values outside [0, 0.32] are clamped, and NaN is an error.
	Burstiness float64
	// WarmupTicks run before measurement (buffer fill, predictor
	// training, queue steady state); < 0 selects 20000, and an explicit
	// 0 measures from cold start (empty buffer, untrained predictor).
	WarmupTicks int64
	// WindowTicks is the measurement window length; <= 0 selects
	// 100000 (0.5 ms of simulated time).
	WindowTicks int64
	Seed        uint64
	// Shards is the number of independent DRAM channel shards serving
	// the request stream (each with its own controller, RNG buffer, and
	// mechanism instance); <= 0 selects 1 — the paper's single-channel
	// machine, which reproduces every historical serve figure byte for
	// byte.
	Shards int
	// Router names the request routing policy across shards
	// (RouterNames); "" selects round-robin.
	Router string
	// Health switches online entropy health monitoring: "on" or "off";
	// "" selects "off" — except that naming a Fault implies "on"
	// (injecting degradation without the monitor that reacts to it is
	// never what a scenario means). The clean path with monitoring on
	// is byte-identical to monitoring off: zero false trips is a pinned
	// property.
	Health string
	// Fault names a deterministic degradation profile injected into
	// every shard's entropy stream (trng.FaultNames: bias-ramp,
	// stuck-bits, burst); "" selects none.
	Fault string
	// Warm switches checkpointed warm starts: "on" or "off"; "" selects
	// "off". When on, the sweep warms exactly one background-only System
	// per configuration to WarmupTicks, snapshots it as an immutable
	// image (memoized process-wide, so concurrent sweeps share one
	// warm-up), and forks every offered-load point from that image —
	// the warmup work is paid once per configuration instead of once
	// per point. A warm point injects no warmup-period arrivals (the
	// image is shared across loads, so it cannot contain load-dependent
	// state); the measured-window arrival schedule and client rotation
	// are unchanged. The default cold path is byte-identical to every
	// historical serve figure; warm mode is a different (deterministic)
	// experiment, which is why it is opt-in.
	Warm string
	// Checkpoint, when positive, snapshots the running point's System
	// every Checkpoint ticks inside the measurement window and resumes
	// it from the restored image — periodic checkpoint/resume for long
	// windows. Restore-then-step is byte-identical to uninterrupted
	// stepping (the Snapshot differential tests pin it), so the measured
	// output does not depend on the interval; <= 0 disables.
	Checkpoint int64
	// Engine names the inner simulation loop of every point's System
	// (EngineEvent, EngineTicked); "" selects DefaultEngine:
	// DRSTRANGE_ENGINE, then event.
	Engine string
}

// Normalized returns the configuration with its defaults filled in:
// D-RaNGe, 8 clients, admission none, 8-byte requests, Poisson
// arrivals, a 20000-tick warmup (negative only — an explicit 0
// measures from cold start), a 100000-tick window, one shard,
// round-robin routing, no fault, health and warm starts off. This is
// the single defaulting point of the serving layer, and the reference
// the public scenario API's defaulting-parity tests compare against.
func (c ServeConfig) Normalized() ServeConfig {
	if c.Mech.Name == "" {
		c.Mech = trng.DRaNGe()
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.ThinkTicks < 0 {
		c.ThinkTicks = 0
	}
	if c.Admission == "" {
		c.Admission = AdmissionNone
	}
	if c.AdmitDepth <= 0 {
		c.AdmitDepth = DefaultAdmitDepth
	}
	if c.RequestBytes <= 0 {
		c.RequestBytes = 8
	}
	if c.Arrival == "" {
		c.Arrival = workload.ArrivalPoisson
	}
	if c.WarmupTicks < 0 {
		c.WarmupTicks = 20_000
	}
	if c.WindowTicks <= 0 {
		c.WindowTicks = 100_000
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Router == "" {
		c.Router = RouterRoundRobin
	}
	if c.Health == "" && c.Fault != "" {
		c.Health = "on"
	}
	if c.Health != "on" {
		// Normalize "" and every negative spelling to "off", and drop
		// a fault explicitly overridden to run unmonitored (the
		// injection is only observable through the monitor).
		c.Health = "off"
		c.Fault = ""
	}
	if c.Warm != "on" || c.WarmupTicks == 0 || c.ThinkTicks > 0 {
		// Normalize "" and every negative spelling to "off"; with no
		// warmup there is no warm state to share, so cold start is the
		// same experiment and the image machinery would only add
		// overhead.
		// Closed-loop points are always cold: the warm image is
		// background-only and shared across loads, but a closed loop's
		// warmup traffic is load-dependent (its population is), so there
		// is no image that every point could fork from.
		c.Warm = "off"
	}
	if c.Checkpoint < 0 || c.ThinkTicks > 0 {
		// Closed-loop points never checkpoint: the client population's
		// schedule lives outside the System, so a mid-run image would be
		// partial. (Restore ≡ replay still holds for the System itself;
		// this is a scope choice, not a correctness one.)
		c.Checkpoint = 0
	}
	if c.Engine == "" {
		c.Engine = DefaultEngine()
	}
	return c
}

// classTable resolves configured class names into their table entries;
// nil when unclassed. An unknown name panics — the public surfaces
// (scenario validation, the rngbench flags) reject it upstream.
func classTable(names []string) []RequestClass {
	if len(names) == 0 {
		return nil
	}
	out := make([]RequestClass, len(names))
	for i, name := range names {
		cls, ok := ClassByName(name)
		if !ok {
			panic(fmt.Sprintf("sim: unknown request class %q (valid: %v)", name, ClassNames()))
		}
		out[i] = cls
	}
	return out
}

func (c *ServeConfig) normalize() { *c = c.Normalized() }

// ServePoint is one measured offered-load point of a serving sweep.
// Latencies are in memory cycles (multiply by TickNanos for ns) and
// cover arrival to last-word completion — queueing, backpressure, and
// generation all count, as a client would experience them.
type ServePoint struct {
	OfferedMbps float64
	// AchievedMbps is the random-number throughput actually delivered
	// during the measurement window. It tracks OfferedMbps until the
	// system saturates.
	AchievedMbps float64
	// Submitted counts requests arriving inside the window; Completed
	// counts how many of those finished before the drain horizon (they
	// differ only if the drain cap cut off a saturated backlog).
	Submitted int64
	Completed int64
	// BufferHitRate is the fraction of measured words served from the
	// random number buffer.
	BufferHitRate float64

	MeanTicks float64
	P50       float64
	P95       float64
	P99       float64
	P999      float64

	// Streaming-pipeline cost counters (the memory story of the point,
	// not part of the rendered figure). PeakOutstanding is the maximum
	// number of injected requests alive at once — the pipeline's heap
	// high-water mark in requests, bounded by queueing depth rather than
	// window length. RecycledRequests counts injections served from the
	// completion freelist. LatencyBins is the number of distinct latency
	// values the percentile histogram held (its memory in entries,
	// versus one slice element per completion before streaming metrics).
	PeakOutstanding  int64
	RecycledRequests int64
	LatencyBins      int

	// Sharded-topology stats, filled only when the point was measured
	// on a sharded system (Shards > 1): the configured topology plus
	// each shard's routing/occupancy/hit-rate snapshot after the drain.
	// Single-shard points leave all three zero, so every historical
	// ServePoint comparison stays byte-identical.
	Shards   int
	Router   string
	PerShard []ShardStat

	// Health aggregates the point's availability story (trip count,
	// downtime, failed/rerouted requests, availability and its nines)
	// when health monitoring was on; nil otherwise, so health-off
	// points compare and serialize exactly as before. Failed requests
	// count toward Submitted but never toward Completed or the latency
	// percentiles — an entropy failure is an error, not a slow serve.
	Health *ServeHealth

	// Overload-robustness stats (class.go), all zero on the historical
	// open-loop unclassed path. Population is the closed-loop client
	// count the point ran with (Little's law from the offered load;
	// 0 on open-loop points). Shed counts measured requests the
	// admission policy refused; DeadlineMissed those failed at their
	// class deadline while waiting; Retried closed-loop resubmissions
	// after a shed/miss/failure. PerClass breaks the point down by
	// request class, in cfg.Classes order, when classes are configured.
	Population     int
	Shed           int64
	DeadlineMissed int64
	Retried        int64
	PerClass       []ClassStat
}

// ClassStat is one request class's slice of a measured serve point.
// Latencies are in memory cycles, like ServePoint's.
type ClassStat struct {
	// Class names the request class; Priority and DeadlineTicks echo its
	// table entry, so a report is self-describing.
	Class         string `json:"class"`
	Priority      int    `json:"priority"`
	DeadlineTicks int64  `json:"deadline_ticks,omitempty"`

	// Submitted counts the class's measured-window submissions
	// (closed-loop retries included); Completed those that finished;
	// Shed those the admission policy refused; DeadlineMissed those
	// failed at the class deadline while waiting; Retried the
	// closed-loop resubmissions among Submitted.
	Submitted      int64 `json:"submitted"`
	Completed      int64 `json:"completed"`
	Shed           int64 `json:"shed,omitempty"`
	DeadlineMissed int64 `json:"deadline_missed,omitempty"`
	Retried        int64 `json:"retried,omitempty"`

	MeanTicks float64 `json:"mean_ticks"`
	P50       float64 `json:"p50"`
	P99       float64 `json:"p99"`

	// GoodputMbps is the class's useful delivered throughput: bits of
	// requests that completed inside the window within their deadline
	// (all completions, for a deadline-free class).
	GoodputMbps float64 `json:"goodput_mbps"`
	// ViolationFrac is the class's SLO-violation fraction:
	// (late completions + deadline misses) / (completions + misses).
	// Deadline-free classes report 0.
	ViolationFrac float64 `json:"violation_frac"`
}

// ServeLoad sweeps the offered loads (aggregate Mb/s of requested
// random bits) under one serving configuration. Points fan out across
// the worker pool; each point is an independent, deterministically
// seeded System, so results are byte-identical at any worker count and
// under either engine.
func ServeLoad(cfg ServeConfig, offeredMbps []float64) []ServePoint {
	out, err := ServeLoadCtx(context.Background(), cfg, offeredMbps)
	if err != nil {
		// The background context never cancels, so this is a real
		// configuration error (bad arrival name) — fail as loudly as the
		// pre-error-path code did.
		//drstrange:alloc-ok cold path: Sprintf only feeds the unreachable-config panic
		panic(fmt.Sprintf("sim: %v", err))
	}
	return out
}

// ServeLoadCtx is ServeLoad under a context. Cancellation aborts the
// sweep promptly and mid-flight: the point fan-out stops claiming new
// load points, and each in-progress point — which advances its System
// in bounded StepTo slices — abandons its measurement at the next
// slice boundary. A cancelled sweep returns (nil, ctx.Err()); partial
// points are never exposed.
func ServeLoadCtx(ctx context.Context, cfg ServeConfig, offeredMbps []float64) ([]ServePoint, error) {
	cfg.normalize()
	// Vet the arrival process, the loads and the closed-loop populations
	// once, up front: a bad name, a NaN burstiness, a non-positive or
	// non-finite load, an open-loop backlog past MaxBacklog or an
	// oversized or empty population must surface as an error from the
	// sweep, not a panic inside a worker goroutine, an out-of-memory
	// death or a meaningless point. (Finite burstiness outside [0, 0.32]
	// is clamped.)
	if _, err := workload.NewArrivals(cfg.Arrival, 1, cfg.Burstiness, 0); err != nil {
		return nil, err
	}
	if math.IsNaN(cfg.Burstiness) {
		return nil, fmt.Errorf("burstiness must be a number; got NaN")
	}
	capacity := cfg.Mech.StreamMbps(dram.DefaultGeometry().Channels) * float64(cfg.Shards)
	ticks := float64(cfg.WarmupTicks) + float64(cfg.WindowTicks)
	for _, mbps := range offeredMbps {
		if !(mbps > 0) || math.IsInf(mbps, 1) {
			return nil, fmt.Errorf("offered load must be a positive finite Mb/s value; got %g", mbps)
		}
		excess := requestRate(mbps, cfg.RequestBytes) - requestRate(capacity, cfg.RequestBytes)
		if backlog := excess * ticks; cfg.ThinkTicks == 0 && backlog > MaxBacklog {
			return nil, fmt.Errorf("offered load of %g Mb/s exceeds the %g Mb/s streaming capacity by a backlog of up to %.0f requests, past %d; lower the load or shorten the warmup and window",
				mbps, capacity, backlog, MaxBacklog)
		}
		pop := population(requestRate(mbps, cfg.RequestBytes), cfg.ThinkTicks)
		if pop > MaxClients {
			return nil, fmt.Errorf("closed-loop population of %.0f clients at %g Mb/s exceeds %d; lower think_ticks or the load",
				pop, mbps, MaxClients)
		}
		if cfg.ThinkTicks > 0 && pop < 1 {
			return nil, fmt.Errorf("closed-loop load of %g Mb/s at think_ticks %d sizes a population under half a client; raise the load or think_ticks",
				mbps, cfg.ThinkTicks)
		}
	}
	out := make([]ServePoint, len(offeredMbps))
	parDoCtx(ctx, len(offeredMbps), func(i int) {
		out[i] = servePoint(ctx, cfg, offeredMbps[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// requestRate converts an offered load in Mb/s into requests per memory
// cycle (one cycle is 5 ns).
func requestRate(mbps float64, requestBytes int) float64 {
	return mbps * 1e6 / trng.MemCyclesPerSecond / float64(requestBytes*8)
}

// population sizes a closed-loop point by Little's law: pop = rate ×
// think, rounded, so the point demands its configured load when service
// is instant and self-throttles as the server falls behind. It stays a
// float64 so ServeLoadCtx can check it against MaxClients and reject a
// population that rounds to zero before any conversion; open-loop
// points (think 0) have none.
func population(ratePerTick float64, think int64) float64 {
	if think <= 0 {
		return 0
	}
	return math.Round(ratePerTick * float64(think))
}

// serveTarget is the per-core instruction budget of serving runs: large
// enough that background cores never retire it (a System freezes once
// every core finishes), small enough that maxTicks arithmetic stays far
// from overflow.
const serveTarget = int64(1) << 40

// serveSlice bounds how many ticks servePoint advances per StepTo call
// between context checks: small enough that cancellation lands within a
// fraction of a measurement window, large enough that the re-entry
// overhead is invisible (the StepTo slicing invariant guarantees the
// sliced walk is bit-identical to one unsliced call).
const serveSlice = 1 << 13

// servePoint measures one offered-load point as a constant-memory
// streaming pipeline. Nothing in it scales with the window length or
// the offered load, only with the number of requests simultaneously
// outstanding:
//
//   - Arrivals are generated lazily, one StepTo slice ahead, instead of
//     materializing the whole warmup+window schedule up front.
//   - A completion hook folds each finished request into running
//     accumulators (pointAcc: counters and a sparse latency histogram)
//     the moment its last word completes, and the handle is recycled
//     through the System's freelist instead of living until the end of
//     the run.
//   - The drain phase polls the O(1) outstanding count instead of
//     re-scanning a request slice.
//
// Open- and closed-loop points share everything but the arrival feed:
// feedOpen injects a precomputed arrival process, feedClosed a client
// population whose next submission waits on the previous completion.
//
// The figure bytes are pinned against the old pre-materializing,
// sort-based collection (TestServePointMatchesReferenceCollection and
// the testdata/serve_golden.txt pin): the arrival draw stream, the
// injection schedule, and the nearest-rank percentiles are all exactly
// what the reference produced.
//
//drstrange:noalloc
func servePoint(ctx context.Context, cfg ServeConfig, mbps float64) ServePoint {
	p := poolOf(ctx)
	p.acquire()
	defer p.release()

	ratePerTick := requestRate(mbps, cfg.RequestBytes)
	seed := cfg.Seed ^ math.Float64bits(mbps)
	closed := cfg.ThinkTicks > 0

	acc := newPointAcc(cfg, mbps, float64(cfg.RequestBytes*8))
	rcfg := servePointRunConfig(cfg)
	var cl *workload.ClosedLoop
	if closed {
		pop := int(population(ratePerTick, cfg.ThinkTicks))
		rcfg.Clients = pop
		acc.p.Population = pop
		cl = workload.NewClosedLoop(pop, cfg.ThinkTicks, seed)
	}
	var sys *System
	if cfg.Warm == "on" {
		// Fork this point from the sweep-shared warm image instead of
		// re-running the warmup: the image already sits at WarmupTicks.
		sys = RestoreSystem(warmImage(cfg))
	} else {
		sys = NewSystem(rcfg)
	}

	if cfg.Health == "on" {
		sys.SetAvailabilityWindow(cfg.WarmupTicks, acc.end)
	}
	//drstrange:alloc-ok one closure per serve point, not per tick; the hot loop only invokes it
	onDone := func(r *InjectedRequest) {
		served := acc.observe(r)
		if cl == nil {
			return
		}
		if served {
			cl.OnSuccess(r.Client, r.FinishTick)
		} else {
			cl.OnFailure(r.Client, r.FinishTick)
		}
	}
	sys.OnInjectionComplete(onDone)

	words := (cfg.RequestBytes + 7) / 8
	if closed {
		feedClosed(ctx, sys, cfg, cl, acc, words)
	} else {
		sys = feedOpen(ctx, sys, cfg, ratePerTick, seed, acc, words, onDone)
	}
	// Drain: a measurement must not censor slow requests, so step until
	// every one completes. Arrivals stop at end (closed-loop clients stop
	// resubmitting: wake-ups pushed by drain-phase completions are never
	// popped), so a backlog always drains; the horizon of 20 extra
	// windows covers offered loads far beyond capacity.
	horizon := acc.end + 20*cfg.WindowTicks
	for sys.OutstandingInjections() > 0 && sys.Now() < horizon && ctx.Err() == nil {
		sys.StepTo(sys.Now() + 4095)
	}
	if ctx.Err() != nil {
		return ServePoint{}
	}
	return acc.finish(sys, cfg)
}

// feedOpen steps sys to the end of the measurement window, feeding each
// slice's open-loop arrivals to the injection port just before stepping
// across it, and returns the System it ended on (periodic checkpoints
// replace it). The StepTo slicing invariant keeps the walk bit-identical
// to one unsliced call, and injections carry timestamps, so chunked
// feeding is equivalent to the old whole-window pre-generation — minus
// the O(all arrivals) schedule.
//
// A warm point resumes at WarmupTicks: the arrival draw stream still
// starts from tick 0 (so the measured-window schedule and client
// rotation match the cold run draw for draw), but arrivals before the
// resume tick are skipped — the shared warm image was built without
// them, which is the warm mode's one semantic difference.
//
//drstrange:noalloc
func feedOpen(ctx context.Context, sys *System, cfg ServeConfig, ratePerTick float64, seed uint64, acc *pointAcc, words int, onDone func(*InjectedRequest)) *System {
	arr, err := workload.NewArrivals(cfg.Arrival, ratePerTick, cfg.Burstiness, seed)
	if err != nil {
		//drstrange:alloc-ok cold path: Sprintf only feeds the unreachable-config panic
		panic(fmt.Sprintf("sim: %v", err)) // unreachable: ServeLoadCtx vetted the name
	}
	injectFrom := int64(0)
	if cfg.Warm == "on" {
		injectFrom = cfg.WarmupTicks
	}
	// Periodic checkpoint/resume (long-window points): every Checkpoint
	// ticks the System is snapshotted and replaced by its own restore,
	// exercising the full snapshot path on the measured run. Restore ≡
	// replay, so the measurement is byte-identical to Checkpoint = 0.
	nextCkpt := farFuture
	if cfg.Checkpoint > 0 {
		nextCkpt = sys.Now() + cfg.Checkpoint
	}
	nclass := len(acc.classes)
	chunk := workload.NewChunked(arr)
	reqIdx := 0
	for sys.Now() < acc.end && ctx.Err() == nil {
		target := sys.Now() + serveSlice
		if target > acc.end-1 {
			target = acc.end - 1
		}
		//drstrange:alloc-ok per-slice, not per-tick, and non-escaping; pinned by the serve allocs/op gate
		chunk.TakeThrough(target, acc.end, func(tick int64) {
			if tick >= cfg.WarmupTicks {
				acc.submitted(reqIdx, 0)
			}
			if tick >= injectFrom {
				if nclass > 0 {
					sys.InjectRNGClass(reqIdx%cfg.Clients, tick, words, reqIdx%nclass)
				} else {
					sys.InjectRNG(reqIdx%cfg.Clients, tick, words)
				}
			}
			reqIdx++
		})
		sys.StepTo(target)
		if sys.Now() >= nextCkpt {
			sys = RestoreSystem(sys.Snapshot())
			sys.OnInjectionComplete(onDone)
			nextCkpt = sys.Now() + cfg.Checkpoint
		}
	}
	return sys
}

// feedClosed steps sys to the end of the measurement window under a
// closed-loop client population (ThinkTicks > 0). Each client's life
// cycle runs through workload.ClosedLoop: submit, wait for the
// completion hook, think (or back off after a shed/miss/failure),
// submit again. Wake-ups are popped and injected at executed ticks
// between StepTo slices; the slice is bounded by a quarter of the think
// time so a completion's next submission lands promptly. Everything the
// loop consumes — completion ticks, think draws, backoff jitter — is
// engine-invariant, so the schedule is byte-identical across engines.
//
//drstrange:noalloc
func feedClosed(ctx context.Context, sys *System, cfg ServeConfig, cl *workload.ClosedLoop, acc *pointAcc, words int) {
	// The closed-loop slice: small enough relative to the think time
	// that a completion's follow-up submission is injected promptly
	// (wake-ups landing inside an executed slice are only noticed at its
	// boundary), bounded by the open-loop slice above and a floor below.
	slice := cfg.ThinkTicks / 4
	if slice > serveSlice {
		slice = serveSlice
	}
	if slice < 64 {
		slice = 64
	}
	nclass := len(acc.classes)
	for sys.Now() < acc.end && ctx.Err() == nil {
		now := sys.Now()
		for {
			client, attempt, ok := cl.PopReady(now)
			if !ok {
				break
			}
			if now >= cfg.WarmupTicks {
				acc.submitted(client, attempt)
			}
			if nclass > 0 {
				sys.InjectRNGClass(client, now, words, client%nclass)
			} else {
				sys.InjectRNG(client, now, words)
			}
		}
		target := now + slice
		if nr := cl.NextReady(); nr <= target {
			// Stop exactly at the next known wake-up so its submission
			// is injected at its ready tick, not a slice boundary later.
			target = nr - 1
		}
		if target > acc.end-1 {
			target = acc.end - 1
		}
		if target < now {
			target = now
		}
		sys.StepTo(target)
	}
}

// pointAcc is one serve point's running measurement: the ServePoint
// being filled, the latency histogram and sums behind its percentiles,
// window throughput, and the per-class accumulators. The completion hook
// feeds it (observe), the arrival feed counts submissions (submitted),
// and finish turns it into the reported point.
type pointAcc struct {
	p                 ServePoint
	warmup, end       int64
	reqBits           float64
	classes           []RequestClass
	cs                []classAcc
	hist              metrics.Histogram
	sumTicks          int64
	bufWords          int64
	doneWords         int64
	completedInWindow int64
}

func newPointAcc(cfg ServeConfig, mbps, reqBits float64) *pointAcc {
	a := &pointAcc{
		p:       ServePoint{OfferedMbps: mbps},
		warmup:  cfg.WarmupTicks,
		end:     cfg.WarmupTicks + cfg.WindowTicks,
		reqBits: reqBits,
		classes: classTable(cfg.Classes),
	}
	if len(a.classes) > 0 {
		a.cs = make([]classAcc, len(a.classes))
	}
	return a
}

// submitted counts a measured-window submission by request index or
// client i (whose class is i mod len(classes)); attempt > 0 marks a
// closed-loop retry.
//
//drstrange:noalloc
func (a *pointAcc) submitted(i, attempt int) {
	a.p.Submitted++
	if attempt > 0 {
		a.p.Retried++
	}
	if a.cs != nil {
		c := &a.cs[i%len(a.classes)]
		c.submitted++
		if attempt > 0 {
			c.retried++
		}
	}
}

// observe folds one completed request into the accumulators and reports
// whether it was served — false for a request that was shed, missed its
// class deadline, or failed at a tripped shard.
//
//drstrange:noalloc
func (a *pointAcc) observe(r *InjectedRequest) (served bool) {
	if r.Failed {
		// Deadline-failed at a tripped shard: counted by the
		// availability stats (ServeHealth.FailedRequests), never by the
		// serving metrics.
		return false
	}
	if r.Shed || r.Missed {
		// Refused by admission or failed at the class deadline: an error
		// outcome, visible in the shed/miss counters but never in the
		// latency percentiles.
		if r.SubmitTick >= a.warmup {
			accountRefusal(&a.p, a.cs, r)
		}
		return false
	}
	if r.FinishTick >= a.warmup && r.FinishTick < a.end {
		a.completedInWindow++
	}
	if r.SubmitTick < a.warmup {
		return true // warmup request: load, not measurement
	}
	a.p.Completed++
	l := r.Latency()
	a.hist.Add(l)
	a.sumTicks += l
	a.bufWords += int64(r.BufferWords)
	a.doneWords += int64(r.Words)
	if a.cs != nil && r.Class >= 0 {
		a.cs[r.Class].accountCompletion(a.classes, r, l, a.reqBits, a.warmup, a.end)
	}
	return true
}

// finish completes the point from the accumulators and the drained
// System's counters.
func (a *pointAcc) finish(sys *System, cfg ServeConfig) ServePoint {
	p := a.p
	achievedBits := float64(a.completedInWindow) * a.reqBits
	p.AchievedMbps = achievedBits / float64(cfg.WindowTicks) * trng.MemCyclesPerSecond / 1e6
	if a.doneWords > 0 {
		p.BufferHitRate = float64(a.bufWords) / float64(a.doneWords)
	}
	if a.hist.N() > 0 {
		// Integer tick latencies summed as integers equal the reference's
		// float64 accumulation exactly (every partial sum is far below
		// 2^53), and the histogram's nearest-rank quantiles are defined
		// to match sort-and-index bit for bit.
		p.MeanTicks = float64(a.sumTicks) / float64(a.hist.N())
		p.P50 = a.hist.Percentile(0.50)
		p.P95 = a.hist.Percentile(0.95)
		p.P99 = a.hist.Percentile(0.99)
		p.P999 = a.hist.Percentile(0.999)
	}
	p.PeakOutstanding = int64(sys.PeakOutstandingInjections())
	p.RecycledRequests = sys.RecycledInjections()
	p.LatencyBins = a.hist.Bins()
	if cfg.Shards > 1 {
		p.Shards = cfg.Shards
		p.Router = cfg.Router
		p.PerShard = sys.ShardStats()
	}
	if cfg.Health == "on" {
		h := sys.HealthStats(cfg.WindowTicks)
		p.Health = &h
	}
	if a.cs != nil {
		p.PerClass = classStats(a.classes, a.cs, cfg.WindowTicks)
	}
	return p
}

// classAcc is one request class's running accumulators while a point
// streams; classStats finalizes it into the reported ClassStat.
type classAcc struct {
	submitted int64
	completed int64
	shed      int64
	missed    int64
	retried   int64
	late      int64 // completions past the class deadline
	sumTicks  int64
	goodBits  float64
	hist      metrics.Histogram
}

// accountRefusal folds a shed or deadline-missed measured request into
// the point's and its class's counters.
//
//drstrange:noalloc
func accountRefusal(p *ServePoint, cs []classAcc, r *InjectedRequest) {
	if r.Shed {
		p.Shed++
		if cs != nil && r.Class >= 0 {
			cs[r.Class].shed++
		}
		return
	}
	p.DeadlineMissed++
	if cs != nil && r.Class >= 0 {
		cs[r.Class].missed++
	}
}

// accountCompletion folds a measured completion with latency l into the
// class's accumulators: percentile histogram, lateness against the
// class deadline, and window goodput.
//
//drstrange:noalloc
func (a *classAcc) accountCompletion(classes []RequestClass, r *InjectedRequest, l int64, reqBits float64, warmup, end int64) {
	a.completed++
	a.hist.Add(l)
	a.sumTicks += l
	dl := classes[r.Class].DeadlineTicks
	late := dl > 0 && l > dl
	if late {
		a.late++
	}
	if r.FinishTick >= warmup && r.FinishTick < end && !late {
		a.goodBits += reqBits
	}
}

// classStats finalizes the per-class accumulators into reported stats,
// in class-table order.
func classStats(classes []RequestClass, cs []classAcc, windowTicks int64) []ClassStat {
	out := make([]ClassStat, len(classes))
	for i := range classes {
		a := &cs[i]
		st := ClassStat{
			Class:          classes[i].Name,
			Priority:       classes[i].Priority,
			DeadlineTicks:  classes[i].DeadlineTicks,
			Submitted:      a.submitted,
			Completed:      a.completed,
			Shed:           a.shed,
			DeadlineMissed: a.missed,
			Retried:        a.retried,
		}
		if a.hist.N() > 0 {
			st.MeanTicks = float64(a.sumTicks) / float64(a.hist.N())
			st.P50 = a.hist.Percentile(0.50)
			st.P99 = a.hist.Percentile(0.99)
		}
		st.GoodputMbps = a.goodBits / float64(windowTicks) * trng.MemCyclesPerSecond / 1e6
		if den := a.completed + a.missed; den > 0 {
			st.ViolationFrac = float64(a.late+a.missed) / float64(den)
		}
		out[i] = st
	}
	return out
}

// servePointRunConfig lowers a normalized ServeConfig onto the
// RunConfig a serve point's System is built from — one definition
// shared by the cold path and the warm-image builder, so a forked warm
// System is structurally identical to a cold one.
func servePointRunConfig(cfg ServeConfig) RunConfig {
	rcfg := RunConfig{
		Design:       cfg.Design,
		Mix:          cfg.Background,
		Mech:         cfg.Mech,
		BufferWords:  cfg.BufferWords,
		Instructions: serveTarget,
		Seed:         cfg.Seed,
		Clients:      cfg.Clients,
		Shards:       cfg.Shards,
		Router:       cfg.Router,
		Classes:      classTable(cfg.Classes),
		Admission:    cfg.Admission,
		AdmitDepth:   cfg.AdmitDepth,
		Engine:       cfg.Engine,
	}
	if cfg.Health == "on" {
		rcfg.Health = trng.DefaultHealthConfig()
		rcfg.Fault = trng.DefaultFaultProfile(cfg.Fault)
	}
	return rcfg
}

// buildWarmImage runs the background-only warmup once and freezes it:
// a System with no injected arrivals stepped to WarmupTicks, then
// snapshotted. Health monitoring (if on) runs during the warmup under
// a zero-length availability window, so warmup-period trips never
// count toward any point's downtime — exactly as in a cold run, where
// the window also opens at WarmupTicks.
func buildWarmImage(cfg ServeConfig) *SystemImage {
	sys := NewSystem(servePointRunConfig(cfg))
	if cfg.Health == "on" {
		sys.SetAvailabilityWindow(cfg.WarmupTicks, cfg.WarmupTicks)
	}
	for sys.Now() < cfg.WarmupTicks {
		target := sys.Now() + serveSlice
		if target > cfg.WarmupTicks-1 {
			target = cfg.WarmupTicks - 1
		}
		sys.StepTo(target)
	}
	return sys.Snapshot()
}

// ServeCurvesCtx runs the offered-load sweep for each design and
// renders one Figure per design — rows are offered loads, columns the
// serving metrics (latencies in ns) — returning each design's measured
// points beside its figure (the streaming pipeline's cost counters the
// figure does not print). This is what cmd/rngbench prints. Designs
// fan out across the worker pool and every underlying sweep aborts
// promptly on cancellation, returning ctx.Err(). A real
// (non-cancellation) error from any design's sweep is propagated — the
// first one in design order, deterministically — instead of leaving a
// zero Figure in the result.
func ServeCurvesCtx(ctx context.Context, designs []Design, cfg ServeConfig, offeredMbps []float64) ([]Figure, [][]ServePoint, error) {
	cfg.normalize()
	figs := make([]Figure, len(designs))
	points := make([][]ServePoint, len(designs))
	errs := make([]error, len(designs))
	parDoCtx(ctx, len(designs), func(i int) {
		c := cfg
		c.Design = designs[i]
		figs[i], points[i], errs[i] = serveCurve(ctx, c, offeredMbps)
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return figs, points, nil
}

// serveCurve sweeps the offered loads for cfg.Design alone and renders
// the single latency-vs-load Figure alongside the measured points: the
// unit ServeCurvesCtx fans out, with cfg already normalized.
func serveCurve(ctx context.Context, cfg ServeConfig, offeredMbps []float64) (Figure, []ServePoint, error) {
	points, err := ServeLoadCtx(ctx, cfg, offeredMbps)
	if err != nil {
		return Figure{}, nil, err
	}
	// Single-shard figures keep their historical ID and title bytes;
	// sharded sweeps announce the topology in both. The availability
	// columns appear only when a fault is configured — gated on the
	// configuration, never on the measured data, so a clean run with
	// health monitoring on renders byte-identically to monitoring off
	// (zero false trips is a pinned property, not a formatting
	// accident).
	id := fmt.Sprintf("ServeLoad-%s", cfg.Design)
	topo := ""
	if cfg.Shards > 1 {
		id = fmt.Sprintf("ServeLoad-%s-x%d", cfg.Design, cfg.Shards)
		topo = fmt.Sprintf("%d shards via %s, ", cfg.Shards, cfg.Router)
	}
	degraded := cfg.Fault != ""
	fault := ""
	if degraded {
		fault = fmt.Sprintf(", fault=%s", cfg.Fault)
	}
	// The closed-loop and per-class columns are gated on the
	// configuration (ThinkTicks, Classes, Admission), never on measured
	// data, exactly like the availability columns: an unclassed open-loop
	// sweep renders byte-identically to every historical figure.
	closed := cfg.ThinkTicks > 0
	classed := len(cfg.Classes) > 0
	mode := fmt.Sprintf("%s, %d clients", cfg.Arrival, cfg.Clients)
	if closed {
		mode = fmt.Sprintf("closed-loop think=%d", cfg.ThinkTicks)
	}
	extra := fault
	if classed {
		extra += fmt.Sprintf(", classes=%s", strings.Join(cfg.Classes, "+"))
	}
	if cfg.Admission != AdmissionNone {
		extra += fmt.Sprintf(", admission=%s depth=%d", cfg.Admission, cfg.AdmitDepth)
	}
	labels := []string{"offered", "achieved", "p50ns", "p95ns", "p99ns", "p999ns", "bufhit", "served"}
	if degraded {
		labels = append(labels, "nines", "trips", "downtime", "failed", "rerouted")
	}
	if closed {
		labels = append(labels, "clients", "retried", "shed")
	}
	if classed {
		for _, name := range cfg.Classes {
			labels = append(labels, "p99:"+name, "viol:"+name, "good:"+name, "shed:"+name)
		}
	}
	f := Figure{
		ID: id,
		Title: fmt.Sprintf("%s serving %s %dB requests (%s, %sbg=%s%s)",
			cfg.Design, cfg.Mech.Name, cfg.RequestBytes, mode, topo, bgName(cfg.Background), extra),
		// "served" is Completed/Submitted: below 1.0 the drain
		// horizon censored the slowest requests, so the latency
		// percentiles on that row are optimistic.
		Labels: labels,
	}
	for _, pt := range points {
		servedFrac := 0.0
		if pt.Submitted > 0 {
			servedFrac = float64(pt.Completed) / float64(pt.Submitted)
		}
		values := []float64{
			pt.OfferedMbps,
			pt.AchievedMbps,
			pt.P50 * TickNanos,
			pt.P95 * TickNanos,
			pt.P99 * TickNanos,
			pt.P999 * TickNanos,
			pt.BufferHitRate,
			servedFrac,
		}
		if degraded {
			h := pt.Health
			if h == nil {
				h = &ServeHealth{}
			}
			values = append(values,
				h.Nines,
				float64(h.Trips),
				float64(h.DowntimeTicks),
				float64(h.FailedRequests),
				float64(h.ReroutedRequests),
			)
		}
		if closed {
			values = append(values,
				float64(pt.Population),
				float64(pt.Retried),
				float64(pt.Shed),
			)
		}
		if classed {
			for i := range cfg.Classes {
				var c ClassStat
				if i < len(pt.PerClass) {
					c = pt.PerClass[i]
				}
				values = append(values,
					c.P99*TickNanos,
					c.ViolationFrac,
					c.GoodputMbps,
					float64(c.Shed),
				)
			}
		}
		f.Series = append(f.Series, Series{
			Name:   fmt.Sprintf("%gMb/s", pt.OfferedMbps),
			Values: values,
		})
	}
	return f, points, nil
}

func bgName(m workload.Mix) string {
	if len(m.Apps) == 0 && m.RNGMbps <= 0 {
		return "none"
	}
	if m.Name != "" {
		return m.Name
	}
	return fmt.Sprintf("%d apps", len(m.Apps))
}
