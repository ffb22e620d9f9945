package sim

import (
	"fmt"

	"drstrange/internal/cpu"
	"drstrange/internal/energy"
	"drstrange/internal/memctrl"
	"drstrange/internal/workload"
)

// System is one fully constructed simulated system — one or more DRAM
// channel shards, each a memory controller over its own DRAM device
// with its own TRNG mechanism, RNG buffer, and cores — whose clock the
// caller advances explicitly. It is the steppable core every driver
// builds on: Run steps a System to completion, the figure drivers go
// through Run, and the open-loop serving layer (ServeLoad,
// cmd/rngbench) steps a System while injecting externally generated RNG
// requests through the injection port.
//
// With RunConfig.Shards == 1 (the default, and every figure driver) the
// System is exactly the paper's single-channel machine. With Shards > 1
// it is a scale-out entropy service: N independent channels behind one
// injection port, with a router (RunConfig.Router, router.go) choosing
// the serving shard per request at its arrival tick.
//
// Time advances only through Step/StepTo, using the engine the config
// names (RunConfig.Engine). The event engine executes, at each event,
// only the shards that are due — per-shard accounting catches up lazily
// over the skipped ticks — and finds the next event through the
// per-shard bound heap (eventq.go). The ticked engine, the reference
// oracle, walks every shard through every cycle. Both produce
// bit-identical results at every shard count, and results are
// independent of how the advancement is sliced into StepTo calls
// (TestSystemStepToSegments): a skipped tick and an executed quiescent
// tick are equivalent by the engine invariant documented in engine.go.
//
// A System steps one simulated clock and is not safe for concurrent
// use. Use one instance per goroutine; the experiment engine (pool.go)
// fans out across independent Systems.
type System struct {
	cfg    RunConfig
	shards []*channelShard
	policy routePolicy
	engine string

	now        int64 // next tick to execute
	done       bool  // every measured core reached its instruction target
	doneTick   int64 // tick the last core finished (valid once done)
	totalCores int   // measured cores across all shards

	// Injection port state. clientBase is the controller core id of
	// client 0 (clients occupy the core-id range after the simulated
	// cores, so each shard controller's per-core bookkeeping — RNG-app
	// marking, priorities — covers them). Arrivals are held centrally
	// and routed to a shard at their exact arrival tick.
	clientBase int
	sched      []*InjectedRequest // scheduled arrivals, ascending SubmitTick
	schedHead  int

	// Completion-hook state (OnInjectionComplete): onInjDone is invoked
	// as each injected request's last word completes, after which the
	// handle is recycled through irFree — the serving layer's request
	// pool, mirroring the controller's own Request freelist. irFresh
	// holds never-used handles carved from block allocations, so the
	// run's allocation count is O(peak outstanding / block size).
	onInjDone   func(*InjectedRequest)
	irFree      []*InjectedRequest // completed handles, ready for reuse
	irFresh     []*InjectedRequest // block-allocated, never handed out
	injLive     int                // injected requests not yet complete
	injPeak     int                // high-water mark of injLive
	injRecycled int64              // InjectRNG calls served from irFree

	// Event-loop next-event index (eventq.go): one entry per shard,
	// keyed by the shard's cached bound.
	heap boundHeap

	// Health-monitoring state (health.go). tripsLive counts currently
	// quarantined shards — the router consults it before paying for a
	// health-aware pick. availFrom/availUntil clip downtime accounting
	// to the measurement window (SetAvailabilityWindow).
	tripsLive  int
	availFrom  int64
	availUntil int64

	// Admission-control state (class.go), resolved at construction.
	// admitMode is the shed policy consulted per arrival (admitNone — the
	// default — skips the check entirely); admitDepth the per-shard
	// queue-depth bound; shedMinPrio the lowest priority in cfg.Classes,
	// the only class drop-lowest-class ever sheds.
	admitMode   admission
	admitDepth  int
	shedMinPrio int
}

// channelShard is one independent DRAM channel of the System: its own
// controller, device, TRNG mechanism instance, RNG buffer, and cores,
// plus the shard-local injection state and the event-loop bookkeeping
// that lets the sharded engine execute only the shards due at a tick.
type channelShard struct {
	idx   int
	mcfg  memctrl.Config
	ctrl  *memctrl.Controller
	cores []*cpu.Core
	names []string

	waiting     []*InjectedRequest // routed here, not yet fully submitted (FIFO)
	waitHead    int
	outstanding []injWord // submitted words in flight

	// Cached all-cores-stalled bound for componentBound: when every core
	// reported the far-future sentinel, the cores stay stalled until the
	// controller's unblock-event counter moves, so the per-event core
	// scan can be skipped in between.
	coresStalled   bool
	coresStalledEv int64

	// Event-loop state. accounted is the next tick this shard must
	// account (every tick below it has been executed or credited through
	// AccountSkip); bound caches the shard's next-event lower bound (the
	// shard executes at the first event at or past it; the zero value
	// makes a fresh shard execute at tick 0); finishedCores caches the
	// done-detection count across quiescent events.
	accounted     int64
	bound         int64
	finishedCores int

	// Router-visible / reported stats.
	routed    int64 // requests the router dispatched here
	completed int64 // requests fully served here
	live      int   // dispatched, not yet complete
	peakLive  int   // high-water mark of live
	doneWords int64 // words completed here
	bufWords  int64 // of those, served from the RNG buffer
	shed      int64 // arrivals the admission policy refused here
	missed    int64 // waiting requests failed at their class deadline

	// dlWaiting counts deadline-carrying requests in waiting[waitHead:].
	// The per-tick deadline scan runs only while it is positive, so the
	// unclassed hot path never pays for it.
	dlWaiting int

	// health is the shard's entropy health monitor (health.go); nil
	// when monitoring is off, so the clean path pays nothing.
	health *shardHealth
}

// bufferWords reports how many complete words the shard's RNG buffer
// holds right now (0 without a buffer) — the buffer-aware router's
// signal.
func (sh *channelShard) bufferWords() int {
	if sh.mcfg.Buffer == nil {
		return 0
	}
	return sh.mcfg.Buffer.Words()
}

// InjectedRequest is one externally submitted RNG request flowing
// through the System's injection port: Words 64-bit words requested by
// one client at SubmitTick. The System fills in the completion fields
// as its clock advances past the relevant events.
type InjectedRequest struct {
	Client int
	Words  int
	// Shard is the channel shard the router dispatched the request to
	// (0 on single-shard systems), valid once the arrival tick passes.
	Shard int
	// SubmitTick is the tick the request arrives at the controller's
	// front end (the open-loop arrival time; queueing delay counts
	// against the request from here).
	SubmitTick int64
	// AcceptTick is the tick the last word entered the controller's RNG
	// queue (later than SubmitTick under queue-full backpressure).
	AcceptTick int64
	// FinishTick is the tick the last word completed (valid once Done).
	FinishTick int64
	// BufferWords counts words served from the random number buffer
	// rather than by on-demand generation.
	BufferWords int
	Done        bool
	// Failed marks a request the degraded-mode deadline failed at a
	// health-tripped shard instead of serving (FinishTick is the fail
	// tick; the request completed no words).
	Failed bool
	// Class indexes RunConfig.Classes for requests injected through
	// InjectRNGClass; -1 marks an unclassed InjectRNG request.
	Class int
	// Shed marks a request the admission policy refused at its routing
	// tick (FinishTick is the routing tick; no words were queued). The
	// closed-loop retry path keys off this.
	Shed bool
	// Missed marks a request failed at its class deadline while still
	// waiting (FinishTick is the deadline tick; no words had started).
	Missed bool

	wordsSubmitted int
	wordsDone      int
	prio           int   // class priority (0 for unclassed)
	deadline       int64 // absolute deadline tick; 0 = none
}

// Latency returns the request's completion latency in memory cycles
// (valid once Done).
func (r *InjectedRequest) Latency() int64 { return r.FinishTick - r.SubmitTick }

// injWord tracks one in-flight 64-bit word of an injected request.
type injWord struct {
	req *memctrl.Request
	ir  *InjectedRequest
}

// shardSeedStride offsets each shard's workload/trace seed so shards
// run decorrelated traces (golden-ratio stride; shard 0 keeps the
// configured seed exactly, preserving every single-shard golden).
const shardSeedStride = 0x9E3779B97F4A7C15

// farFuture is the no-event sentinel next-event bound.
const farFuture = int64(1) << 62

// NewSystem builds the simulated system cfg describes without running
// it: cfg.Shards independent channel shards — each with the design's
// memory controller and DRAM device, one core per application in the
// mix (plus the synthetic RNG benchmark core if the mix requests one)
// — and cfg.Clients injection-port client slots shared by all shards
// through the router. The engine is cfg.Engine, resolved by Normalized.
func NewSystem(cfg RunConfig) *System {
	cfg.normalize()
	nCores := cfg.Mix.Cores()
	prio := cfg.Priorities
	if prio != nil && cfg.Clients > 0 && len(prio) < nCores+cfg.Clients {
		// Clients occupy core ids beyond the mix; pad their priorities
		// with zeros so explicit mix priorities keep their meaning.
		padded := make([]int, nCores+cfg.Clients)
		copy(padded, prio)
		prio = padded
	}
	policy, ok := newRoutePolicy(cfg.Router)
	if !ok {
		panic(fmt.Sprintf("sim: unknown router %q (valid: %v)", cfg.Router, RouterNames()))
	}
	mode, ok := admissionMode(cfg.Admission)
	if !ok {
		panic(fmt.Sprintf("sim: unknown admission policy %q (valid: %v)", cfg.Admission, AdmissionNames()))
	}

	s := &System{
		cfg:        cfg,
		policy:     policy,
		engine:     cfg.Engine,
		clientBase: nCores,
		admitMode:  mode,
		admitDepth: cfg.AdmitDepth,
	}
	for i, cls := range cfg.Classes {
		if i == 0 || cls.Priority < s.shedMinPrio {
			s.shedMinPrio = cls.Priority
		}
	}
	s.availUntil = farFuture
	ccfg := cpu.DefaultConfig()
	for k := 0; k < cfg.Shards; k++ {
		sh := &channelShard{idx: k}
		mcfg := buildConfig(cfg.Design, nCores+cfg.Clients, cfg.Mech, cfg.BufferWords, prio)
		mcfg.OnIdlePeriod = cfg.OnIdlePeriod
		if cfg.Tweak != nil {
			cfg.Tweak(&mcfg)
		}
		if cfg.Health.Enabled {
			sh.health = newShardHealth(k, cfg)
			mcfg.OnRNGRound = func(_ int, now int64) { s.observeRound(sh, now) }
		}
		ctrl, err := memctrl.NewController(mcfg)
		if err != nil {
			panic(fmt.Sprintf("sim: bad controller config: %v", err))
		}
		sh.mcfg, sh.ctrl = mcfg, ctrl
		geom := mcfg.Geom
		seed := cfg.Seed + uint64(k)*shardSeedStride
		for i, app := range cfg.Mix.Apps {
			p := workload.MustByName(app)
			tr := p.NewTrace(geom, 1000+i*4096, seed+uint64(i)*7919)
			sh.cores = append(sh.cores, cpu.NewCore(i, tr, ctrl, ccfg, cfg.Instructions))
			sh.names = append(sh.names, app)
		}
		if cfg.Mix.RNGMbps > 0 {
			rc := workload.DefaultRNGTraceConfig(cfg.Mix.RNGMbps)
			rc.Seed ^= seed
			tr := workload.NewRNGTrace(rc, geom)
			sh.cores = append(sh.cores, cpu.NewCore(len(sh.cores), tr, ctrl, ccfg, cfg.Instructions))
			sh.names = append(sh.names, rngAppName(cfg.Mix.RNGMbps))
		}
		s.totalCores += len(sh.cores)
		s.shards = append(s.shards, sh)
	}
	if s.totalCores == 0 && cfg.Clients == 0 {
		panic("sim: empty mix")
	}
	s.heap.init(len(s.shards))
	return s
}

// Now returns the next tick the System will execute. Ticks 0..Now()-1
// are fully accounted.
func (s *System) Now() int64 { return s.now }

// Done reports whether every measured core has retired its instruction
// budget. A done System is frozen: further Step/StepTo calls are
// no-ops, so Result() is stable. Systems without cores (pure serving
// front ends) never report done.
func (s *System) Done() bool { return s.done }

// Controller exposes shard 0's memory controller (stats, queue
// inspection) — the whole controller on a single-shard System. Sharded
// callers iterate ShardStats instead.
func (s *System) Controller() *memctrl.Controller { return s.shards[0].ctrl }

// Shards reports the number of channel shards.
func (s *System) Shards() int { return len(s.shards) }

// Step executes exactly one tick.
func (s *System) Step() { s.StepTo(s.now) }

// StepTo advances the System until every tick through cycle is
// accounted — executed, or (event engine) batch-credited as provably
// quiescent — stopping early if the run completes. The slicing of a
// run into StepTo calls never changes the outcome: boundaries clamp
// the event engine's skips, and executing a tick the engine could have
// skipped is a no-op by the engine invariant (engine.go).
func (s *System) StepTo(cycle int64) {
	if s.done {
		return
	}
	if s.engine == EngineTicked {
		s.stepTicked(cycle)
	} else {
		s.stepEvent(cycle)
	}
}

// stepTicked is the reference tick-by-tick walk: every shard executes
// every tick in lockstep.
func (s *System) stepTicked(cycle int64) {
	for s.now <= cycle {
		if s.execTick(s.now) {
			return
		}
		s.now++
	}
}

// componentBound lower-bounds the shard's next component event: the
// cores (with the all-stalled cache) and the controller.
//
// The core scan is the per-event cost that grows with the mix, so it is
// bounded two ways: any core able to act short-circuits to now+1 (no
// component bound can be lower), and a scan that finds every core
// stalled is cached against the controller's unblock-event counter — a
// fully stalled core can only be freed by a request completing or a
// queue slot opening, both of which bump that counter, so until it
// moves the cores are provably still stalled and the scan is skipped.
//
//drstrange:noalloc
func (sh *channelShard) componentBound(now int64) int64 {
	next := farFuture
	if len(sh.cores) > 0 {
		ev := sh.ctrl.UnblockEvents()
		if !sh.coresStalled || ev != sh.coresStalledEv {
			sh.coresStalled = false
			coreMin := farFuture
			for _, c := range sh.cores {
				if t := c.NextEventTick(now); t < coreMin {
					coreMin = t
					if coreMin <= now+1 {
						return now + 1
					}
				}
			}
			if coreMin < next {
				next = coreMin
			}
			if coreMin == farFuture {
				sh.coresStalled, sh.coresStalledEv = true, ev
			}
		}
	}
	if t := sh.ctrl.NextEventTick(now); t < next {
		next = t
	}
	// A quarantined shard must execute its re-qualification tick: the
	// recovery transition (healthTick) happens only at executed ticks,
	// so the bound never overshoots it.
	if sh.health != nil && sh.health.tripped && sh.health.suspectUntil < next {
		next = sh.health.suspectUntil
	}
	return next
}

// stepEvent is the event loop. Per event it executes only the shards
// that are due — whose cached bound has arrived, or that just received
// an arrival — and lazily catches up each executing shard's skip
// accounting from wherever it last ran. The next event is the bound
// heap's minimum, clamped by the next scheduled arrival and the StepTo
// boundary. At every boundary the remaining accounting is flushed so
// Result() and the slicing invariant see fully accounted ticks.
//
//drstrange:noalloc
func (s *System) stepEvent(cycle int64) {
	for s.now <= cycle {
		t := s.now
		if s.execDue(t) {
			s.flushAccounting(s.doneTick)
			return
		}
		next := s.heap.min()
		if s.schedHead < len(s.sched) {
			if at := s.sched[s.schedHead].SubmitTick; at < next {
				next = at
			}
		}
		if next > cycle+1 {
			next = cycle + 1
		}
		s.now = next
	}
	s.flushAccounting(cycle)
}

// execDue runs tick t on every due shard (bound reached, pending
// submissions, or a fresh arrival) after routing the arrivals due at t,
// re-indexing each executed shard's bound, and reports whether the run
// completed at t. Quiescent shards contribute their cached finished-core
// counts to done detection — a core can only finish at a tick its shard
// executes.
//
// A bound is a pure function of its shard's own state, and routing —
// the only cross-shard step — happens before any shard executes, so
// computing the bound right after the shard's tick sees exactly the
// state the next event starts from.
//
//drstrange:noalloc
func (s *System) execDue(t int64) bool {
	if s.schedHead < len(s.sched) && s.sched[s.schedHead].SubmitTick <= t {
		s.routeArrivals(t)
	}
	finished := 0
	for _, sh := range s.shards {
		if sh.bound > t && sh.waitHead >= len(sh.waiting) {
			finished += sh.finishedCores
			continue
		}
		sh.creditTo(t)
		sh.finishedCores = s.tickShard(sh, t)
		finished += sh.finishedCores
		sh.accounted = t + 1
		// Submissions blocked on RNG-queue backpressure retry every
		// tick: queue space frees inside controller ticks.
		sh.bound = t + 1
		if sh.waitHead >= len(sh.waiting) {
			sh.bound = sh.componentBound(t)
		}
		s.heap.fix(sh.idx, sh.bound)
	}
	return s.finishedAt(t, finished)
}

// creditTo credits the shard's skipped ticks accounted..t-1, before it
// executes t or at a StepTo boundary. The range lies inside the shard's
// proven-quiescent window (its bound never overshoots a state change),
// and AccountSkip over a quiescent window is split-range exact — the
// blocked/idle predicates it consults cannot flip mid-window — so lazy
// crediting equals eager per-event crediting.
//
//drstrange:noalloc
func (sh *channelShard) creditTo(t int64) {
	n := t - sh.accounted
	if n <= 0 {
		return
	}
	sh.ctrl.AccountSkip(sh.accounted-1, n)
	for _, c := range sh.cores {
		c.AccountSkip(n)
	}
	sh.accounted = t
}

// flushAccounting credits every shard through tick cycle: StepTo
// boundaries and run completion must leave all ticks <= cycle fully
// accounted, exactly like the ticked engine.
//
//drstrange:noalloc
func (s *System) flushAccounting(cycle int64) {
	for _, sh := range s.shards {
		sh.creditTo(cycle + 1)
	}
}

// execTick runs every shard through tick t in lockstep after routing
// the arrivals due at t, and reports whether the run completed at t:
// the ticked engine's step.
//
//drstrange:noalloc
func (s *System) execTick(t int64) bool {
	if s.schedHead < len(s.sched) {
		s.routeArrivals(t)
	}
	finished := 0
	for _, sh := range s.shards {
		finished += s.tickShard(sh, t)
	}
	return s.finishedAt(t, finished)
}

// tickShard runs one shard through tick t — health monitoring, class
// deadlines, injection-port submissions, the controller, the cores,
// injected-request completion collection — and returns how many of its
// cores have finished. Both engines execute a shard's tick through here.
//
//drstrange:noalloc
func (s *System) tickShard(sh *channelShard, t int64) int {
	if sh.health != nil {
		s.healthTick(sh, t)
	}
	if sh.dlWaiting > 0 {
		s.deadlineTick(sh, t)
	}
	if sh.waitHead < len(sh.waiting) {
		s.admitShard(sh, t)
	}
	sh.ctrl.Tick(t)
	fin := 0
	for _, c := range sh.cores {
		c.Tick(t)
		if c.Finished() {
			fin++
		}
	}
	if len(sh.outstanding) > 0 {
		s.collectShard(sh)
	}
	return fin
}

// finishedAt marks the run done at tick t when every measured core has
// finished, and reports whether it did.
func (s *System) finishedAt(t int64, finished int) bool {
	if s.totalCores > 0 && finished == s.totalCores {
		s.done = true
		s.doneTick = t
		return true
	}
	return false
}

// routeArrivals dispatches every scheduled arrival due at tick t to a
// shard through the router. Routing happens here — at the exact arrival
// tick, with the shards' live state — not at InjectRNG time, so queue-
// and buffer-aware policies see what a real front end would.
//
//drstrange:noalloc
func (s *System) routeArrivals(t int64) {
	for s.schedHead < len(s.sched) && s.sched[s.schedHead].SubmitTick <= t {
		ir := s.sched[s.schedHead]
		s.sched[s.schedHead] = nil
		s.schedHead++
		k := 0
		rerouted := false
		if len(s.shards) > 1 {
			// Health-aware dispatch only while the fleet is partially
			// degraded: with no trips the plain pick keeps the clean
			// path byte-identical, and with every shard tripped there
			// is nowhere better to steer (the natural shard queues or
			// deadline-fails the request).
			if s.tripsLive > 0 && s.tripsLive < len(s.shards) {
				k, rerouted = s.policy.pickHealthy(s.shards, ir)
			} else {
				k = s.policy.pick(s.shards, ir)
			}
		}
		ir.Shard = k
		sh := s.shards[k]
		if rerouted {
			sh.health.rerouted++
		}
		sh.routed++
		if s.admitMode != admitNone && s.shouldShed(sh, ir) {
			s.shedRequest(sh, ir, t)
			continue
		}
		sh.live++
		if sh.live > sh.peakLive {
			sh.peakLive = sh.live
		}
		if ir.deadline > 0 {
			sh.dlWaiting++
		}
		//drstrange:alloc-ok amortized: the waiting FIFO's backing array is reused after drain
		sh.waiting = append(sh.waiting, ir)
		if ir.prio > 0 {
			// Priority insertion: shift the new request ahead of strictly
			// lower-priority entries. Equal priorities keep FIFO order, the
			// partially submitted head is never displaced, and an unclassed
			// stream (all prio 0) always takes the plain append above.
			j := len(sh.waiting) - 1
			lo := sh.waitHead
			if lo < j && sh.waiting[lo].wordsSubmitted > 0 {
				lo++
			}
			for j > lo && sh.waiting[j-1].prio < ir.prio {
				sh.waiting[j] = sh.waiting[j-1]
				j--
			}
			sh.waiting[j] = ir
		}
	}
	if s.schedHead == len(s.sched) {
		s.sched, s.schedHead = s.sched[:0], 0
	}
}

// shouldShed applies the admission policy to an arrival: the request is
// refused when its shard's queue depth has reached the policy's bound
// for the request's class. The bound halves (min 1) while the shard's
// entropy buffer is dry — a dry buffer means every queued word pays
// full generation latency, so the shard sheds earlier.
//
//drstrange:noalloc
func (s *System) shouldShed(sh *channelShard, ir *InjectedRequest) bool {
	bound := s.admitDepth
	if sh.bufferWords() == 0 {
		if bound >>= 1; bound < 1 {
			bound = 1
		}
	}
	switch s.admitMode {
	case admitDropLowest:
		return sh.live >= bound && ir.prio == s.shedMinPrio
	case admitThreshold:
		return sh.live >= bound*(1+ir.prio)
	default:
		return false
	}
}

// shedRequest completes an arrival as shed at its routing tick: no words
// are queued, the completion hook fires (the closed-loop retry path keys
// off Shed), and the handle recycles exactly like a served request's.
//
//drstrange:noalloc
func (s *System) shedRequest(sh *channelShard, ir *InjectedRequest, t int64) {
	ir.Shed = true
	ir.Done = true
	ir.FinishTick = t
	sh.shed++
	s.injLive--
	if s.onInjDone != nil {
		s.onInjDone(ir)
		//drstrange:alloc-ok amortized: the request freelist's backing array is reused
		s.irFree = append(s.irFree, ir)
	}
}

// deadlineTick fails every waiting request whose class deadline has
// passed before any of its words entered the controller — the per-class
// generalization of the degraded-mode failDeadline. Partially submitted
// requests are exempt: their words are already being generated, and
// late completions are accounted as SLO violations instead. Callers
// gate on sh.dlWaiting > 0, so the unclassed path never scans.
//
//drstrange:noalloc
func (s *System) deadlineTick(sh *channelShard, t int64) {
	live := sh.waiting[:sh.waitHead]
	for i := sh.waitHead; i < len(sh.waiting); i++ {
		ir := sh.waiting[i]
		if ir.deadline > 0 && t >= ir.deadline && ir.wordsSubmitted == 0 {
			ir.Missed = true
			ir.Done = true
			ir.FinishTick = t
			sh.missed++
			sh.live--
			sh.dlWaiting--
			s.injLive--
			if s.onInjDone != nil {
				s.onInjDone(ir)
				//drstrange:alloc-ok amortized: the request freelist's backing array is reused
				s.irFree = append(s.irFree, ir)
			}
			continue
		}
		//drstrange:alloc-ok in-place compaction into the slice's own backing array
		live = append(live, ir)
	}
	for i := len(live); i < len(sh.waiting); i++ {
		sh.waiting[i] = nil
	}
	sh.waiting = live
}

// OnInjectionComplete registers fn, called exactly once per injected
// request, at the tick its last word completes (from inside Step/StepTo,
// with the completion fields final). Registering a hook switches the
// injection port to recycling mode: after fn returns, the request
// handle goes back to an internal freelist and later InjectRNG calls
// reuse it, so the port's memory stays O(outstanding requests) however
// long the run is. The contract mirrors MemPort recycling: fn must fold
// what it needs into its own accumulators and must not retain the
// pointer or call back into the System. Without a hook, handles stay
// valid until the caller drops them (the legacy contract).
func (s *System) OnInjectionComplete(fn func(*InjectedRequest)) {
	s.onInjDone = fn
}

// OutstandingInjections reports, in O(1), the number of injected
// requests that have not yet completed: scheduled, waiting on
// backpressure, or with words in flight. Drain loops poll this instead
// of scanning their request slice.
func (s *System) OutstandingInjections() int { return s.injLive }

// PeakOutstandingInjections reports the high-water mark of
// OutstandingInjections over the run so far — the injection port's
// memory footprint in requests.
func (s *System) PeakOutstandingInjections() int { return s.injPeak }

// RecycledInjections reports how many InjectRNG calls were served from
// the completion freelist rather than a fresh allocation.
func (s *System) RecycledInjections() int64 { return s.injRecycled }

// InjectRNG schedules an RNG request of words 64-bit words from client
// (0 <= client < cfg.Clients) arriving at tick at. Arrivals must be
// scheduled in non-decreasing time order, at or after the current
// tick. The returned handle's completion fields fill in as the System
// steps past the corresponding events; with an OnInjectionComplete hook
// registered the handle is only valid until the hook fires for it.
func (s *System) InjectRNG(client int, at int64, words int) *InjectedRequest {
	if client < 0 || client >= s.cfg.Clients {
		panic(fmt.Sprintf("sim: client %d out of range (Clients=%d)", client, s.cfg.Clients))
	}
	if words <= 0 {
		panic("sim: injected request needs at least one word")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: cannot inject at past tick %d (now %d)", at, s.now))
	}
	if n := len(s.sched); n > 0 && at < s.sched[n-1].SubmitTick {
		panic("sim: injections must be scheduled in non-decreasing time order")
	}
	var ir *InjectedRequest
	if n := len(s.irFree); n > 0 {
		ir = s.irFree[n-1]
		s.irFree[n-1] = nil
		s.irFree = s.irFree[:n-1]
		s.injRecycled++
	} else {
		if len(s.irFresh) == 0 {
			// Refill in blocks: the run's allocation count is
			// O(peak outstanding / block), not one per request.
			block := make([]InjectedRequest, 64)
			for i := range block {
				s.irFresh = append(s.irFresh, &block[i])
			}
		}
		n := len(s.irFresh)
		ir = s.irFresh[n-1]
		s.irFresh[n-1] = nil
		s.irFresh = s.irFresh[:n-1]
	}
	*ir = InjectedRequest{Client: client, Words: words, SubmitTick: at, Class: -1}
	s.sched = append(s.sched, ir)
	s.injLive++
	if s.injLive > s.injPeak {
		s.injPeak = s.injLive
	}
	return ir
}

// InjectRNGClass is InjectRNG with a request class attached: class
// indexes RunConfig.Classes, whose priority orders the request ahead of
// lower classes at the shard front end and in the controller's RNG
// queue, and whose DeadlineTicks (if nonzero) sets an absolute
// completion deadline from the arrival tick. The admission policy (if
// any) may shed the request at its routing tick; a deadline miss fails
// it while waiting. Both complete the request through the hook with the
// corresponding mark set.
func (s *System) InjectRNGClass(client int, at int64, words, class int) *InjectedRequest {
	if class < 0 || class >= len(s.cfg.Classes) {
		panic(fmt.Sprintf("sim: class %d out of range (Classes=%d)", class, len(s.cfg.Classes)))
	}
	ir := s.InjectRNG(client, at, words)
	cls := &s.cfg.Classes[class]
	ir.Class = class
	ir.prio = cls.Priority
	if cls.DeadlineTicks > 0 {
		ir.deadline = at + cls.DeadlineTicks
	}
	return ir
}

// admitShard submits as many of the shard's queued words as its
// controller accepts, in arrival order (head-of-line blocking on
// RNG-queue backpressure, like a real request front end).
//
//drstrange:noalloc
func (s *System) admitShard(sh *channelShard, t int64) {
	for sh.waitHead < len(sh.waiting) {
		ir := sh.waiting[sh.waitHead]
		for ir.wordsSubmitted < ir.Words {
			req, ok := sh.ctrl.SubmitRNGPri(s.clientBase+ir.Client, t, ir.prio, ir.deadline)
			if !ok {
				// RNG queue full: retry next tick. Under sustained
				// backpressure arrivals keep appending while the head
				// barely moves, so reclaim the dead prefix mid-stream
				// (the memctrl completion FIFOs bound growth the same
				// way).
				if sh.waitHead > 64 && sh.waitHead >= len(sh.waiting)/2 {
					n := copy(sh.waiting, sh.waiting[sh.waitHead:])
					clear(sh.waiting[n:])
					sh.waiting = sh.waiting[:n]
					sh.waitHead = 0
				}
				return
			}
			ir.wordsSubmitted++
			if req.FromBuffer {
				ir.BufferWords++
			}
			//drstrange:alloc-ok amortized: the outstanding-word slice's backing array is reused
			sh.outstanding = append(sh.outstanding, injWord{req: req, ir: ir})
		}
		ir.AcceptTick = t
		if ir.deadline > 0 {
			sh.dlWaiting--
		}
		sh.waiting[sh.waitHead] = nil
		sh.waitHead++
	}
	sh.waiting, sh.waitHead = sh.waiting[:0], 0
}

// collectShard retires the shard's completed injected words, recording
// each request's completion tick when its last word finishes. The
// word's controller request is recycled here — the injection port holds
// the system's last reference, exactly as a core's instruction window
// does.
//
//drstrange:noalloc
func (s *System) collectShard(sh *channelShard) {
	live := sh.outstanding[:0]
	for _, w := range sh.outstanding {
		if !w.req.Done {
			//drstrange:alloc-ok in-place compaction into the slice's own backing array
			live = append(live, w)
			continue
		}
		ir := w.ir
		ir.wordsDone++
		if w.req.Finish > ir.FinishTick {
			ir.FinishTick = w.req.Finish
		}
		if ir.wordsDone == ir.Words {
			ir.Done = true
			s.injLive--
			sh.live--
			sh.completed++
			sh.doneWords += int64(ir.Words)
			sh.bufWords += int64(ir.BufferWords)
			if s.onInjDone != nil {
				s.onInjDone(ir)
				//drstrange:alloc-ok amortized: the request freelist's backing array is reused
				s.irFree = append(s.irFree, ir)
			}
		}
		sh.ctrl.Recycle(w.req)
	}
	for i := len(live); i < len(sh.outstanding); i++ {
		sh.outstanding[i] = injWord{}
	}
	sh.outstanding = live
}

// ShardStat is one channel shard's routing and occupancy snapshot:
// what the router sent it, what it served, and how its RNG buffer is
// doing. ServePoint carries these per measured load point.
type ShardStat struct {
	Shard int
	// Routed counts requests the router dispatched to this shard;
	// Completed those fully served. Live is routed-minus-completed at
	// snapshot time, PeakLive its high-water mark (the shard's queue
	// occupancy bound).
	Routed    int64
	Completed int64
	Live      int
	PeakLive  int
	// BufferHitRate is the fraction of this shard's completed words
	// served from its RNG buffer.
	BufferHitRate float64
	// BufferWords is the buffer's current word count; RNGQueueLen the
	// controller's RNG queue occupancy.
	BufferWords int
	RNGQueueLen int

	// Health-monitoring counters (health.go), all zero when monitoring
	// is off. Trips counts quarantines; FirstTripTick is the first
	// trip's tick (-1 with monitoring on but no trips). DowntimeTicks
	// is quarantined ticks clipped to the availability window,
	// including a still-open quarantine at snapshot time.
	// FailedRequests counts deadline failures; ReroutedRequests counts
	// arrivals dispatched here because their natural shard was tripped.
	Trips            int64
	FirstTripTick    int64
	DowntimeTicks    int64
	FailedRequests   int64
	ReroutedRequests int64

	// Admission/deadline counters (class.go), all zero on the unclassed
	// path. Shed counts arrivals the admission policy refused here;
	// DeadlineMissed counts waiting requests failed at their class
	// deadline.
	Shed           int64
	DeadlineMissed int64
}

// ShardStats snapshots every shard's routing/occupancy counters, in
// shard order.
func (s *System) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for k, sh := range s.shards {
		st := ShardStat{
			Shard:          k,
			Routed:         sh.routed,
			Completed:      sh.completed,
			Live:           sh.live,
			PeakLive:       sh.peakLive,
			BufferWords:    sh.bufferWords(),
			RNGQueueLen:    sh.ctrl.RNGQueueLen(),
			Shed:           sh.shed,
			DeadlineMissed: sh.missed,
		}
		if sh.doneWords > 0 {
			st.BufferHitRate = float64(sh.bufWords) / float64(sh.doneWords)
		}
		if h := sh.health; h != nil {
			st.Trips = h.trips
			st.FirstTripTick = h.firstTrip
			st.DowntimeTicks = h.downtime
			if h.tripped {
				st.DowntimeTicks += overlapTicks(h.tripTick, s.now, s.availFrom, s.availUntil)
			}
			st.FailedRequests = h.failed
			st.ReroutedRequests = h.rerouted
		}
		out[k] = st
	}
	return out
}

// Result snapshots the run's measurements: per-app outcomes, controller
// stats, and the energy model over the elapsed ticks, summed across
// shards (the energy closed forms are linear in every count, so one
// Compute over summed counts is exact). For a completed run this is
// exactly Run's RunResult; for a still-running System it covers the
// ticks accounted so far. On sharded systems each shard's apps appear
// with an @s<k> suffix (k > 0).
func (s *System) Result() RunResult {
	elapsed := s.now
	if s.done {
		elapsed = s.doneTick + 1
	}
	res := RunResult{TotalTicks: elapsed}
	for k, sh := range s.shards {
		st := sh.ctrl.Stats()
		res.Ctrl.Add(st)
		counts := energy.CountsFrom(sh.ctrl.Device(), elapsed, st.RNGRounds)
		res.Counts.Add(counts)
		for i, c := range sh.cores {
			cst := c.Stats()
			ticks := cst.FinishTick + 1
			ipc := 0.0
			if ticks > 0 {
				ipc = float64(cst.Retired) / float64(ticks)
			}
			name := sh.names[i]
			if k > 0 {
				name = fmt.Sprintf("%s@s%d", name, k)
			}
			res.Apps = append(res.Apps, AppResult{
				Name:         name,
				IsRNG:        i >= len(s.cfg.Mix.Apps), // the RNG core is appended last
				Ticks:        ticks,
				Retired:      cst.Retired,
				IPC:          ipc,
				MPKI:         cst.MPKI(),
				MCPI:         cst.MCPI(),
				RNGStallFrac: frac(cst.StallRNGTicks, ticks),
			})
		}
	}
	res.Energy = energy.Compute(energy.DDR3Params(), s.shards[0].mcfg.Timing, res.Counts)
	res.MemBusyChannelTicks = res.Counts.ActiveTicks + res.Ctrl.TicksRNGMode
	return res
}
