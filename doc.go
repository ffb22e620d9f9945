// Package drstrange is a from-scratch Go reproduction of "DR-STRaNGe:
// End-to-End System Design for DRAM-based True Random Number
// Generators" (Bostancı et al., HPCA 2022) — and the public,
// declarative front door to its simulator.
//
// # The scenario API
//
// One experiment is one Scenario: a JSON-serializable value whose Kind
// selects the experiment family and whose fields name everything the
// run needs — design, TRNG mechanism, engine, workload, arrival
// process — instead of a pile of flags:
//
//   - KindFigure replays one of the paper's figure/table drivers
//     ("fig1" ... "fig18", "sec6", "sec6-adv", "sec8.8", "sec8.9",
//     "table1").
//   - KindRun evaluates one closed-loop workload (shared run plus
//     alone-run baselines) and reports the paper's derived metrics.
//   - KindServe sweeps open-loop offered load over a design comparison
//     set and reports the latency-vs-load serving curves.
//
// Construct scenarios with NewScenario and functional options, a
// struct literal, or ParseScenario/LoadScenario from JSON (unknown
// fields are rejected); Validate is the single source of the sorted
// valid-name errors every consumer prints. Run executes:
//
//	sc := drstrange.NewScenario(drstrange.KindServe,
//	    drstrange.WithDesigns("oblivious", "drstrange"),
//	    drstrange.WithLoads(320, 1280, 2560),
//	)
//	rep, err := drstrange.Run(ctx, sc)
//
// The Report serializes to JSON (one format for every kind — what the
// CLIs emit under -json) and renders to the exact text the drivers
// have always printed, byte-identical through either path.
//
// Cancellation is real: the context handed to Run propagates into the
// simulation worker pool (no new simulations are claimed), the
// open-loop sweep's point loop, and the serving layer's sliced
// System.StepTo walk, so a multi-point sweep aborts promptly
// mid-flight and returns ctx.Err() instead of a partial report.
// Stream is Run with coarse progress events on a channel.
//
// The command-line tools are thin clients of this API: cmd/drstrange
// and cmd/rngbench build a Scenario from their flags (or load any
// scenario kind via -scenario file.json), and cmd/figures runs each
// experiment as a figure Scenario. The runnable examples live in examples/
// (examples/scenario tours the API); the simulator itself lives under
// internal/ (README.md tours its packages and documents the scenario
// schema).
//
// # Steppable core and open-loop serving
//
// Every driver is a client of one steppable system core, sim.System:
// construction (cores + memory controller + TRNG from a RunConfig) is
// separate from time advancement (Step/StepTo under either engine),
// and results never depend on how a run is sliced into StepTo calls —
// the invariant that also makes the cancellable serving walk exact.
// The open-loop layer steps measurement windows while submitting
// externally generated RNG requests through the System's injection
// port, recording per-request submit/accept/finish timestamps;
// sim.ServeLoad aggregates them into served throughput, p50/p95/p99/
// p999 request latency, and buffer hit rate per offered-load point.
//
// # The serve path's memory model
//
// The serving pipeline is constant-memory: one offered-load point's
// heap is O(simultaneously outstanding requests), independent of the
// measurement window's length and of how many requests the window
// submits in total. Three mechanisms carry that bound end to end:
//
//   - Arrivals are generated lazily, one StepTo slice ahead of the
//     simulated clock, instead of materializing the whole schedule.
//   - The System's completion hook (sim.System.OnInjectionComplete)
//     delivers each request exactly once, at the tick its last word
//     completes, with its timestamps final; the serving layer folds it
//     into running counters and an exact sparse latency histogram
//     (internal/metrics.Histogram — nearest-rank percentiles equal to
//     sorting every observation, enforced by property test), after
//     which the handle returns to a freelist and is reused by a later
//     injection. Hook contract: the callback must copy what it needs,
//     must not retain the pointer past its return, and must not call
//     back into the System. The controller's entropy-round hook
//     (internal/memctrl Config.OnRNGRound, how health monitoring
//     observes each shard's generated words) carries the same
//     contract: it fires synchronously after a round's bits are
//     credited, and must not re-enter the controller.
//   - Drain progress polls the O(1) outstanding-request count rather
//     than scanning a request slice.
//
// Per-point Report.Serve stats surface the bound as measured:
// peak_outstanding (the live-set high-water mark), recycled_requests,
// and latency_bins. The figure bytes are pinned against the
// pre-streaming collection code on both engines.
//
// # The serve path's per-tick cost
//
// A serving tick's cost follows the channel and core counts, not the
// queue depth, although at D-RaNGe capacity the 32-entry RNG queue
// stays near full. The RNG-aware arbitration keeps its starvation
// bookkeeping on every call but returns at once when no channel is in
// regular mode, stops summing the queue's outstanding bits once the
// demand covers every regular-mode channel, and settles the Section 5.2
// priority rule at the first queued request from a core holding the
// highest configured priority. The serving loop collects in-flight
// words only on ticks whose controller served an RNG request, stopping
// after that many finished words, and scans class deadlines only once
// the shard's earliest pending deadline has come. Every early exit is
// exact; a full-scan reference test and a per-slice conservation test
// (under both engines) hold them to it.
//
// # Trace replay
//
// sim.Run, the to-completion driver under every figure, records each
// application trace once per process and replays it. A trace is a pure
// function of (profile, geometry, row base, seed), and the figures run
// the same few hundred streams under many designs and mixes, so the
// first core to reach an op records it on the stream's append-only tape
// (internal/workload.Tape) and every later core copies it instead of
// redrawing one PRNG value per compute instruction. Each distinct op
// costs 24 B: a full cmd/figures -fig all at DRSTRANGE_INSTR=20000
// keeps 413 tapes holding about 154 k ops, roughly 3.7 MB. The tapes
// live with the other memo tables, and sim.ResetMemo drops them.
// Serving keeps live generators: a System built by sim.NewSystem, as
// the serve path and the steppable API build theirs, may run for an
// unbounded window, and a tape of its cores' ops would grow with it.
// Figures, goldens and model counters are unchanged either way.
//
// # Sharded serving topology
//
// A serve scenario's Shards field splits the service across N
// independent DRAM channel shards — each its own memory controller,
// TRNG mechanism, and random number buffer, distinctly seeded — behind
// a request router (the Router field) that dispatches each injected
// request to one shard at its exact arrival tick. Routers (names from
// RouterNames): "round-robin" cycles shards in index order, "jsq"
// joins the shortest queue (fewest in-flight, lowest index on ties),
// "buffer-aware" prefers the fullest random number buffer and falls
// back to jsq among empty ones, "sticky" hashes the client id to a
// shard. Routing is deterministic: sharded results are byte-identical
// across engines, Shards: 1 reproduces
// the single-channel output exactly, and a conservation property test
// pins served + in-flight + shed == injected for every topology. Each
// serve point reports per-shard stats (routed/completed, peak
// outstanding, buffer hit rate) so routing imbalance stays visible.
// One shard caps at D-RaNGe's 2.56 Gb/s aggregate; examples/sharded
// and `rngbench -shards 1,4,16` show the capacity knee moving with N.
//
// # Entropy health and availability
//
// A serve scenario's Health field ("on") puts a zero-allocation
// streaming health monitor on every shard's entropy stream: each
// emitted 64-bit word passes the NIST SP 800-90B continuous tests
// (repetition count, adaptive proportion, both at byte granularity)
// plus a windowed monobit drift check before it may serve a request.
// Monitoring a clean stream is invisible — serve output with Health
// "on" is byte-identical to the unmonitored run. A trip quarantines
// the shard (buffer purged, fills and hits gated) until a clean
// re-qualification window passes; routers route around tripped shards
// and head-of-line requests deadline-fail when no shard is healthy.
// The Fault field injects deterministic degradation (trng.FaultNames:
// "bias-ramp", "burst", "stuck-bits") as a pure function of the
// simulated tick, so trip ticks and recovery replay byte-identically
// across engines. Monitored points
// report trips, downtime, failed/rerouted requests, and availability
// (with its nines) in aggregate and per shard; availability counts
// shard-ticks up within the measurement window only.
//
// # Checkpointed warm starts
//
// sim.System.Snapshot freezes a running system's complete steppable
// state — cores, controller queues and RNG buffer, DRAM timing, TRNG
// and PRNG stream positions, health-monitor and quarantine state, and
// the injection-port bookkeeping — as an immutable sim.SystemImage,
// and sim.RestoreSystem forks an independent system from it. Restore
// is indistinguishable from replay: stepping the fork is
// byte-identical to stepping the original uninterrupted, on both
// engines, pinned by the TestSnapshot*
// differentials (including a snapshot taken inside an open
// quarantine). One image forks any number of instances; images are
// memoized by configuration process-wide.
//
// The serve layer builds two features on it. A scenario's Warm field
// ("on") forks every offered-load point from one
// warmed background-only image instead of re-running the warmup per
// point — a sweep's warmup cost is paid once per configuration (see
// BenchmarkServeSweepWarm vs ServeSweepCold). Warm mode is opt-in:
// a warm point skips warmup-period arrivals (its pre-window state is
// the background-only image), while the measured window's arrival
// schedule is unchanged; the cold path keeps the committed goldens'
// bytes. The Checkpoint field (> 0) makes the running point snapshot
// and restore itself every Checkpoint ticks — periodic
// checkpoint/resume whose output is byte-identical to an
// uninterrupted run, so every checkpointed run self-tests the
// snapshot path.
//
// # Closed-loop serving and overload policies
//
// The open-loop arrival processes model aggregate demand; a serve
// scenario's ThinkTicks field switches the sweep to a closed-loop
// client population instead. The population is sized to the offered
// load by Little's law (clients ≈ rate × think): each client submits
// one request, waits for its completion (via the injection-port hook),
// thinks for an exponentially distributed gap with mean ThinkTicks
// (capped at 16× the mean), and submits again. A shed or failed
// request is retried after capped exponential backoff — 256 ticks
// doubling to a 16384-tick ceiling — with deterministic jitter that is
// a pure function of (seed, client, attempt), so the schedule, which
// is generated online from completion ticks, replays byte-identically
// across engines and worker counts
// (internal/workload.ClosedLoop; TestServeClosedLoopDifferential* and
// the committed closed-loop golden pin it).
//
// The Classes field tags submissions round-robin with request classes
// from a fixed vocabulary: "keygen" (priority 2, 4000-tick / 20 µs
// deadline), "standard" (priority 1, 20000-tick deadline), "bulk"
// (priority 0, no deadline). Priority orders the shard front-end queue
// and the memory controller's RNG queue (equal priorities keep FIFO
// order, so an unclassed stream's bytes are unchanged), and a request
// that has not started generating by its deadline fails with an
// explicit deadline-miss mark. The Admission field selects what the
// router does when a shard's queue sits at the admission bound
// (default depth 64, halved while that shard's entropy buffer is
// dry): "none" accepts everything, "drop-lowest-class" sheds only the
// lowest-priority class, "threshold-by-depth" sheds priority p at
// (p+1)× the bound. Sheds resolve immediately and are visible to the
// closed-loop retry path, and the per-shard conservation identity
// routed == completed + shed + deadline-missed holds under every
// policy. Serve points report population, shed/retried/deadline-missed
// counts, and per-class stats (p50/p99, goodput, SLO-violation
// fraction) in both the figure text and the JSON report. The headline
// (scenarios/serve_closedloop.json, examples/closedloop): at 2× the
// D-RaNGe generation capacity with threshold admission, keygen holds
// its deadline SLO below a 1% violation fraction while bulk absorbs
// all of the shedding.
//
// # Environment knobs
//
// Two environment variables tune every driver and benchmark (their
// accepted values are documented and validated in internal/sim/env.go;
// invalid settings warn once on stderr and fall back, and an unknown
// DRSTRANGE_-prefixed variable — a typo or a retired knob — is called
// out once too):
//
//   - DRSTRANGE_INSTR sets the per-core instruction budget of a
//     measured run (default 100000).
//   - DRSTRANGE_ENGINE selects the inner simulation loop of a run that
//     names none: "event" (default, tick-skipping) or "ticked" (the
//     reference walk); the two produce bit-identical results.
//
// Scenario fields take precedence over the environment when set. Every
// other setting — worker count (default GOMAXPROCS), shards, router,
// health, fault, warm starts, clients, admission — is a field with a
// constant default, so a serialized scenario names the same experiment
// on every host. The cmd/ drivers expose matching flags. The execution
// knobs (Engine, Workers) bind one Run only: the engine rides in every
// simulation config the run builds and the worker bound on a pool
// private to the run, so concurrent Runs with different settings are
// independent.
//
// # Static analysis
//
// The invariants above are also enforced statically. drstrangelint
// (internal/lint, driven by `go run ./cmd/drstrangelint ./...`) is a
// suite of four go/analysis-style analyzers that check every non-test
// file of the module:
//
//   - detlint forbids nondeterminism sources — wall-clock reads, the
//     global math/rand, order-sensitive map ranges, multi-case
//     selects, sync.Map iteration, writes to package-level variables —
//     inside the simulation-core packages, whose every tick is on the
//     byte-identical replay path.
//   - hookcheck enforces the hook no-reentry contract documented
//     above: an OnRNGRound or OnInjectionComplete body, followed
//     transitively through static calls, must not step the System,
//     inject a request, or re-enter the controller's request path
//     (Controller.SetEntropySuspect is the one sanctioned reentry —
//     the health monitor's trip fires from inside a round by design).
//   - noalloc checks functions annotated //drstrange:noalloc — the
//     serve, engine, and health hot paths behind the allocs/op
//     benchmark gates — for allocation-forcing constructs.
//   - envknob requires every DRSTRANGE_* environment lookup to go
//     through internal/sim/env.go, keeping the warn-once validation
//     and typo scan exhaustive.
//
// Justified findings are waived in place with "//drstrange:nondet-ok
// <reason>" or "//drstrange:alloc-ok <reason>"; the reason is
// mandatory, and a typo'd directive verb is itself a finding. `make
// lint` runs gofmt, go vet, staticcheck (when installed), and the
// suite; CI fails on any diagnostic. The analyzers are built on
// internal/lint/analysis, a dependency-free mirror of the
// golang.org/x/tools/go/analysis API, so the module stays free of
// third-party dependencies.
package drstrange
