package memctrl

import (
	"drstrange/internal/dram"
)

// chanMode is the per-channel execution mode state machine. The paper's
// two modes are Regular Execution Mode and RNG Mode; entering and
// leaving RNG mode take time (quiesce, precharge all, reprogram timing
// parameters), modeled as the enter/exit states.
type chanMode uint8

const (
	modeRegular chanMode = iota
	modeEnter
	modeRound
	modeExit
)

// rngContext records why a channel is in RNG mode.
type rngContext uint8

const (
	ctxNone   rngContext = iota
	ctxDemand            // serving queued RNG requests
	ctxFill              // filling the random number buffer
)

// channelState is the controller's per-channel bookkeeping.
type channelState struct {
	readQ  []*Request
	writeQ []*Request

	draining bool // write-drain hysteresis state

	mode      chanMode
	ctx       rngContext
	modeUntil int64 // end tick of the current enter/round/exit phase
	oneShot   bool  // low-utilization fill: exit after a single round

	// Read-completion FIFO: reads finish in issue order because the
	// column latency is constant.
	completions []*Request
	compHead    int

	// Idleness tracking.
	lastAddr          uint64
	periodActive      bool
	periodStart       int64
	periodKey         uint64 // lastAddr when the period began
	periodPred        bool   // predictor's call for this period
	greedyIdle        int64  // Greedy Idle design's free-fill counter
	fillCooldownUntil int64
	fillStart         int64 // tick the current fill excursion began

	issuedThisTick bool
}

// Controller is the simulated memory controller.
type Controller struct {
	cfg   Config
	dev   *dram.Device
	chans []channelState
	// chs caches the device's channel pointers: tickChannel and the
	// event-bound computation touch them every executed tick.
	chs []*dram.Channel

	// rngQ holds the outstanding RNG requests under both policies:
	// DR-STRaNGe's separate, priority-ordered RNG queue (RNGAware), or
	// the baseline's plain FIFO (RNGOblivious).
	rngQ []*Request

	// bufServed is the completion FIFO for buffer-served RNG requests.
	bufServed []*Request
	bufHead   int

	// nextDone is the earliest Finish among the heads of the completion
	// FIFOs (every channel's completions, and bufServed), noEventTick
	// when all are empty. popCompletions has nothing to pop before it,
	// so it returns at once, and recomputes it after popping; the two
	// appends lower it.
	nextDone int64

	isRNGApp   []bool
	priorities []int
	// maxPrio is the highest priority any core holds, fixed at
	// construction: a queued RNG request from a maxPrio core settles
	// rngPriorityWins without scanning further.
	maxPrio int

	// Starvation prevention (Section 5.2): stallCtr counts consecutive
	// ticks the deprioritized queue waited; at StallLimit the next
	// arbitration is forced the other way.
	stallCtr      int64
	deprioRNG     bool // which side is currently deprioritized
	forceOverride bool

	// Hot-path scratch state, reused across ticks so the steady-state
	// tick loop performs zero heap allocations.
	enterScratch []bool     // planDemand's per-channel decision
	candScratch  []chanCand // planDemand's candidate list
	free         []*Request // Request freelist (recycled on retirement)

	// entropySuspect quarantines the controller's entropy output: the
	// online health monitor tripped, so buffered words must not be
	// served and the buffer must not be refilled until the source
	// re-qualifies. Demand-mode generation still runs (a request that
	// must be served gets freshly generated, still-monitored bits).
	entropySuspect bool

	// onRound observes every completed generation round (OnRNGRound);
	// nil when nothing registered.
	onRound func(ch int, now int64)
	// recordIdle, set by RecordIdlePeriods, makes endIdlePeriod append
	// each ended idle period's length to idleLog.
	recordIdle bool
	idleLog    []int64

	stats Stats
}

// chanCand is one RNG-mode candidate channel in planDemand's
// least-loaded-first ordering.
type chanCand struct{ ch, qlen int }

// NewController builds a controller and its DRAM device from cfg.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewFRFCFSCap(cfg.Geom.Channels)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dev, err := dram.NewDevice(cfg.Geom, cfg.Timing)
	if err != nil {
		return nil, err
	}
	prio := cfg.Priorities
	if prio == nil {
		prio = make([]int, cfg.NumCores)
	}
	maxPrio := prio[0]
	for _, p := range prio[:cfg.NumCores] {
		maxPrio = max(maxPrio, p)
	}
	c := &Controller{
		cfg:          cfg,
		dev:          dev,
		chans:        make([]channelState, cfg.Geom.Channels),
		chs:          dev.Channels,
		isRNGApp:     make([]bool, cfg.NumCores),
		priorities:   prio,
		maxPrio:      maxPrio,
		enterScratch: make([]bool, cfg.Geom.Channels),
		candScratch:  make([]chanCand, 0, cfg.Geom.Channels),
		nextDone:     noEventTick,
	}
	// Pre-size the queues to their capacities so steady-state operation
	// never grows them.
	for i := range c.chans {
		c.chans[i].readQ = make([]*Request, 0, ReadQueueCap)
		c.chans[i].writeQ = make([]*Request, 0, WriteQueueCap)
		c.chans[i].completions = make([]*Request, 0, ReadQueueCap)
	}
	c.rngQ = make([]*Request, 0, RNGQueueCap)
	return c, nil
}

// newRequest returns a zeroed Request, recycling a retired one when
// available: the steady-state tick loop allocates nothing per memory
// operation.
//
//drstrange:noalloc
func (c *Controller) newRequest() *Request {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		*r = Request{}
		return r
	}
	return &Request{}
}

// Recycle returns a completed request to the controller's freelist.
// Callers must not touch the request afterwards: the core calls this
// exactly once, when the request retires from its instruction window
// (the last reference the system holds); the controller itself recycles
// posted writes when they leave the write queue.
//
//drstrange:noalloc
func (c *Controller) Recycle(r *Request) {
	if r != nil {
		c.free = append(c.free, r)
	}
}

// OnRNGRound registers fn to observe every completed TRNG generation
// round (channel, completion tick), after the round's bits are
// credited; nil unregisters. fn fires synchronously inside the round's
// advance, so it must not call back into the controller's stepping
// methods; SetEntropySuspect is the one sanctioned re-entry (it only
// flips serve gating and drains the buffer). The online health monitor
// observes the word stream through it.
func (c *Controller) OnRNGRound(fn func(ch int, now int64)) { c.onRound = fn }

// RecordIdlePeriods starts logging the length of every idle period
// that ends from now on (the Figure 5/18 profiles); IdlePeriods returns
// the log. Recording only observes: it changes no simulated state.
func (c *Controller) RecordIdlePeriods() { c.recordIdle = true }

// IdlePeriods returns the logged idle period lengths in the order the
// periods ended, across channels, or nil if RecordIdlePeriods was
// never called.
func (c *Controller) IdlePeriods() []int64 { return c.idleLog }

// SetEntropySuspect flips the entropy quarantine. Entering quarantine
// purges the random number buffer — its words were produced by the
// stream that just failed its health tests, so they are discarded, not
// served. Leaving quarantine re-enables buffer serving and filling;
// the buffer refills from scratch.
func (c *Controller) SetEntropySuspect(suspect bool) {
	if suspect && !c.entropySuspect && c.cfg.Buffer != nil {
		for c.cfg.Buffer.Words() > 0 && c.cfg.Buffer.TakeWord() {
		}
	}
	c.entropySuspect = suspect
}

// Device exposes the DRAM device (energy model, tests).
func (c *Controller) Device() *dram.Device { return c.dev }

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// RNGServed reports Stats().RNGServed without copying the other
// counters: the serving loop polls it on every executed tick.
func (c *Controller) RNGServed() int64 { return c.stats.RNGServed }

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// RNGQueueLen reports the number of queued RNG requests.
func (c *Controller) RNGQueueLen() int { return len(c.rngQ) }

// WriteQueueLen reports channel ch's write queue occupancy.
func (c *Controller) WriteQueueLen(ch int) int { return len(c.chans[ch].writeQ) }

// InRNGMode reports whether channel ch is currently out of regular
// execution mode.
func (c *Controller) InRNGMode(ch int) bool { return c.chans[ch].mode != modeRegular }

// IsRNGApp reports whether core has issued an RNG request (the paper
// marks an application as an RNG application on its first request).
func (c *Controller) IsRNGApp(core int) bool { return c.isRNGApp[core] }

// SubmitRead enqueues a read for core at tick now. It returns the
// request handle and false if the target read queue is full (the core
// must retry).
func (c *Controller) SubmitRead(line uint64, core int, now int64) (*Request, bool) {
	addr := c.cfg.Geom.Map(line)
	cs := &c.chans[addr.Channel]
	if len(cs.readQ) >= ReadQueueCap {
		return nil, false
	}
	req := c.newRequest()
	req.Kind, req.Addr, req.Line, req.Core, req.Arrive = KindRead, addr, line, core, now
	c.endIdlePeriod(addr.Channel, now)
	cs.readQ = append(cs.readQ, req)
	cs.lastAddr = line
	return req, true
}

// SubmitWrite enqueues a write. Writes are posted: the core does not
// wait for them, so only a success flag is returned.
func (c *Controller) SubmitWrite(line uint64, core int, now int64) bool {
	addr := c.cfg.Geom.Map(line)
	cs := &c.chans[addr.Channel]
	if len(cs.writeQ) >= WriteQueueCap {
		return false
	}
	req := c.newRequest()
	req.Kind, req.Addr, req.Line, req.Core, req.Arrive = KindWrite, addr, line, core, now
	c.endIdlePeriod(addr.Channel, now)
	cs.writeQ = append(cs.writeQ, req)
	cs.lastAddr = line
	return true
}

// SubmitRNG enqueues a 64-bit random number request. Under RNGAware it
// is served from the random number buffer when possible; otherwise it
// joins the RNG queue. It returns false if the queue is full.
func (c *Controller) SubmitRNG(core int, now int64) (*Request, bool) {
	return c.SubmitRNGPri(core, now, 0, 0)
}

// SubmitRNGPri is SubmitRNG with a class priority and an absolute
// deadline (0 = none) attached: the RNG queue keeps deadline-aware
// priority order — higher priority first, then earlier deadline, then
// FIFO — so the queue head creditBits serves next is always the most
// urgent outstanding request. A (0, 0) submission is byte-identical to
// SubmitRNG: the insertion degenerates to the historical tail append.
// The buffer-hit fast path ignores priority (a hit completes in
// bufferServeLatency regardless), and under RNGOblivious the queue stays
// FIFO — the baseline design has no notion of classes.
//
//drstrange:noalloc
func (c *Controller) SubmitRNGPri(core int, now int64, prio int, deadline int64) (*Request, bool) {
	c.isRNGApp[core] = true
	if c.cfg.Policy == RNGAware {
		hit := false
		if c.entropySuspect {
			// Quarantined: never serve from the buffer; fall through to
			// the RNG queue for fresh, still-monitored generation.
		} else if pb, ok := c.cfg.Buffer.(PartitionedBuffer); ok {
			hit = pb.TakeWordFor(core)
		} else if c.cfg.Buffer != nil {
			hit = c.cfg.Buffer.TakeWord()
		}
		if hit {
			req := c.newRequest()
			req.Kind, req.Core, req.Arrive = KindRNG, core, now
			req.FromBuffer = true
			req.Finish = now + bufferServeLatency
			c.bufServed = append(c.bufServed, req)
			c.nextDone = min(c.nextDone, req.Finish)
			return req, true
		}
	} else {
		prio, deadline = 0, 0 // the baseline's queue stays FIFO
	}
	if len(c.rngQ) >= RNGQueueCap {
		return nil, false
	}
	req := c.newRequest()
	req.Kind, req.Core, req.Arrive = KindRNG, core, now
	req.Prio, req.Deadline = prio, deadline
	c.rngQ = append(c.rngQ, req)
	if prio != 0 || deadline != 0 {
		// Stable insertion: shift only while the new request strictly
		// precedes its neighbor, so equal (prio, deadline) pairs keep
		// submission order and the all-zero stream never shifts.
		j := len(c.rngQ) - 1
		for j > 0 && rngBefore(req, c.rngQ[j-1]) {
			c.rngQ[j] = c.rngQ[j-1]
			j--
		}
		c.rngQ[j] = req
	}
	return req, true
}

// rngBefore reports whether a strictly precedes b in the RNG queue's
// deadline-aware priority order: higher priority first, then earlier
// deadline (0 = none sorts last), never reordering ties.
//
//drstrange:noalloc
func rngBefore(a, b *Request) bool {
	if a.Prio != b.Prio {
		return a.Prio > b.Prio
	}
	da, db := a.Deadline, b.Deadline
	if da == 0 {
		da = int64(1) << 62
	}
	if db == 0 {
		db = int64(1) << 62
	}
	return da < db
}

// Tick advances the controller by one memory cycle.
//
//drstrange:noalloc
func (c *Controller) Tick(now int64) {
	c.popCompletions(now)
	c.cfg.Scheduler.Tick(now)

	enterDemand := c.planDemand(now)

	for i := range c.chans {
		c.tickChannel(i, now, enterDemand[i])
	}
}

// popCompletions marks requests whose data has arrived as done. Before
// nextDone no FIFO head has finished, so there is nothing to pop (and
// compactFIFO acts only after a pop); most executed ticks return here.
//
//drstrange:noalloc
func (c *Controller) popCompletions(now int64) {
	if now < c.nextDone {
		return
	}
	next := noEventTick
	for i := range c.chans {
		cs := &c.chans[i]
		for cs.compHead < len(cs.completions) && cs.completions[cs.compHead].Finish <= now {
			req := cs.completions[cs.compHead]
			req.Done = true
			c.stats.ReadsServed++
			c.stats.ReadLatencySum += req.Finish - req.Arrive
			cs.completions[cs.compHead] = nil
			cs.compHead++
		}
		cs.completions, cs.compHead = compactFIFO(cs.completions, cs.compHead)
		if cs.compHead < len(cs.completions) {
			next = min(next, cs.completions[cs.compHead].Finish)
		}
	}
	for c.bufHead < len(c.bufServed) && c.bufServed[c.bufHead].Finish <= now {
		req := c.bufServed[c.bufHead]
		req.Done = true
		c.stats.RNGServed++
		c.stats.RNGFromBuffer++
		c.stats.RNGLatencySum += req.Finish - req.Arrive
		c.bufServed[c.bufHead] = nil
		c.bufHead++
	}
	c.bufServed, c.bufHead = compactFIFO(c.bufServed, c.bufHead)
	if c.bufHead < len(c.bufServed) {
		next = min(next, c.bufServed[c.bufHead].Finish)
	}
	c.nextDone = next
}

// compactFIFO bounds a head-indexed completion FIFO's memory. A fully
// drained FIFO resets in place; a FIFO whose dead prefix dominates the
// live tail shifts the tail to the front. The second case matters on
// long runs with always-pending tail requests, where head-only
// compaction would let the slice grow without bound.
func compactFIFO(q []*Request, head int) ([]*Request, int) {
	if head <= 64 {
		return q, head
	}
	if head == len(q) {
		return q[:0], 0
	}
	if head >= len(q)/2 {
		n := copy(q, q[head:])
		clear(q[n:])
		return q[:n], 0
	}
	return q, head
}

// planDemand decides which channels should switch into RNG demand mode
// this tick. It implements both integration policies:
//
//   - RNGOblivious: any pending RNG request pulls every channel into
//     RNG mode immediately, stalling regular requests (Section 3's
//     baseline).
//   - RNGAware: the priority rules of Section 5.2 arbitrate between
//     the RNG queue and the regular read queues, and only as many
//     channels as the outstanding bit demand needs are switched,
//     preferring the least-loaded channels.
//
//drstrange:noalloc
func (c *Controller) planDemand(now int64) []bool {
	enter := c.enterScratch
	for i := range enter {
		enter[i] = false
	}
	if len(c.rngQ) == 0 {
		c.stallCtr = 0
		return enter
	}
	if c.cfg.Policy == RNGOblivious {
		for i := range c.chans {
			if c.chans[i].mode == modeRegular {
				enter[i] = true
			}
		}
		return enter
	}

	rngWins := c.rngPriorityWins()

	// Starvation prevention: count ticks the losing queue waits while
	// both sides have work; at the limit, force one arbitration the
	// other way.
	if c.stallCounting() {
		if c.deprioRNG != !rngWins {
			c.deprioRNG = !rngWins
			c.stallCtr = 0
		}
		c.stallCtr++
		if c.stallCtr >= StallLimit {
			c.forceOverride = true
			c.stallCtr = 0
			c.stats.StarvationOverrides++
		}
	} else {
		c.stallCtr = 0
	}
	if c.forceOverride {
		rngWins = !rngWins
		c.forceOverride = false
	}

	// Only regular-mode channels can be switched, so the decision below
	// depends on the outstanding demand only up to `regular` rounds.
	active, regular := 0, 0
	for i := range c.chans {
		if cs := &c.chans[i]; cs.mode == modeRegular {
			regular++
		} else if cs.ctx == ctxDemand {
			active++
		}
	}
	if regular == 0 {
		// No channel can enter: the candidate list would be empty.
		return enter
	}

	// How many channels must generate to cover outstanding demand? The
	// in-order sum stops once the demand already covers every
	// regular-mode channel. That is exact for any RoundBits: partial
	// sums of non-negative floats only grow, demandRounds is monotone in
	// its sum, and the result is only ever used capped at `regular`.
	wanted := 0
	sum := 0.0
	for _, r := range c.rngQ {
		sum += r.BitsRemaining()
		if wanted = c.demandRounds(sum, active, regular); wanted == regular {
			break
		}
	}
	if wanted <= 0 {
		return enter
	}

	// Candidate channels, least-loaded first (ties by channel index).
	// The scratch list is insertion-sorted as it builds: channel counts
	// are tiny, and reusing it keeps the per-tick path allocation-free.
	cands := c.candScratch[:0]
	for i := range c.chans {
		cs := &c.chans[i]
		if cs.mode != modeRegular {
			continue
		}
		eligible := rngWins
		if !eligible && len(cs.readQ) > 0 {
			// Non-RNG-prioritized exception (Section 5.2): if the
			// oldest regular read on this channel belongs to an RNG
			// application and arrived after the oldest RNG request,
			// serve the RNG queue first to prevent RNG starvation.
			oldest := cs.readQ[0]
			if c.isRNGApp[oldest.Core] && oldest.Arrive > c.rngQ[0].Arrive {
				eligible = true
			}
		}
		if !eligible && len(cs.readQ) == 0 && len(cs.writeQ) == 0 {
			// An idle channel can serve the RNG queue without
			// deprioritizing anyone.
			eligible = true
		}
		if eligible {
			nc := chanCand{i, len(cs.readQ)}
			j := len(cands)
			//drstrange:alloc-ok amortized: candScratch's backing array is reused across calls
			cands = append(cands, nc)
			for j > 0 && cands[j-1].qlen > nc.qlen {
				cands[j] = cands[j-1]
				j--
			}
			cands[j] = nc
		}
	}
	c.candScratch = cands
	for i := 0; i < len(cands) && i < wanted; i++ {
		enter[cands[i].ch] = true
	}
	return enter
}

// demandRounds counts the generation rounds still needed to cover sum
// outstanding bits once the active demand-mode channels' in-flight
// rounds are credited, counting no further than limit. It subtracts
// RoundBits one step at a time in the same order as an uncapped count,
// so every round it reports is one the uncapped count reports too.
//
//drstrange:noalloc
func (c *Controller) demandRounds(sum float64, active, limit int) int {
	rb := c.cfg.Mech.RoundBits
	for ; active > 0; active-- {
		sum -= rb
	}
	n := 0
	for ; sum > 0 && n < limit; sum -= rb {
		n++
	}
	return n
}

// rngPriorityWins applies the Section 5.2 priority rules: the RNG queue
// is chosen when the highest-priority RNG application with a queued
// request outranks (or ties) every non-RNG application with a queued
// regular read.
//
//drstrange:noalloc
func (c *Controller) rngPriorityWins() bool {
	pR := -1 << 30
	for _, r := range c.rngQ {
		p := c.priorities[r.Core]
		if p == c.maxPrio {
			// Exact early exit: no core outranks maxPrio, so no queued
			// read can beat this request, and ties favor RNG.
			return true
		}
		if p > pR {
			pR = p
		}
	}
	pN := -1 << 30
	seen := false
	for i := range c.chans {
		for _, r := range c.chans[i].readQ {
			if !c.isRNGApp[r.Core] {
				seen = true
				if p := c.priorities[r.Core]; p > pN {
					pN = p
				}
			}
		}
	}
	if !seen {
		return true
	}
	return pR >= pN // equal priorities favor RNG (Section 5.2)
}

// stallCounting reports whether Section 5.2's starvation counter
// advances this tick: under the RNG-aware policy, while RNG requests and
// regular reads both wait.
//
//drstrange:noalloc
func (c *Controller) stallCounting() bool {
	return c.cfg.Policy == RNGAware && len(c.rngQ) > 0 && c.anyReadQueued()
}

func (c *Controller) anyReadQueued() bool {
	for i := range c.chans {
		if len(c.chans[i].readQ) > 0 {
			return true
		}
	}
	return false
}

// tickChannel advances one channel by one cycle.
//
//drstrange:noalloc
func (c *Controller) tickChannel(chIdx int, now int64, enterDemand bool) {
	cs := &c.chans[chIdx]
	ch := c.chs[chIdx]
	ch.CountTicks(1)
	cs.issuedThisTick = false

	if cs.mode != modeRegular {
		c.stats.TicksRNGMode++
		c.advanceRNGMode(chIdx, now)
		if cs.mode != modeRegular {
			return
		}
	}

	// Refresh has priority over everything in regular mode.
	if now < ch.RefreshUntil {
		return
	}
	if ch.RefreshDue(now) {
		c.serviceRefresh(chIdx, now)
		return
	}

	if enterDemand {
		c.beginEnter(chIdx, ctxDemand, now, false)
		c.stats.TicksRNGMode++
		return
	}

	c.serveRegular(chIdx, now)
	c.idleBookkeeping(chIdx, now)
}

// advanceRNGMode steps the enter/round/exit state machine.
//
//drstrange:noalloc
func (c *Controller) advanceRNGMode(chIdx int, now int64) {
	cs := &c.chans[chIdx]
	if now < cs.modeUntil {
		return
	}
	switch cs.mode {
	case modeEnter:
		c.startRound(chIdx, now)
	case modeRound:
		c.stats.RNGRounds++
		c.creditBits(chIdx, c.cfg.Mech.RoundBits, now)
		if c.onRound != nil {
			c.onRound(chIdx, now)
		}
		if c.shouldContinue(chIdx, now) {
			c.startRound(chIdx, now)
		} else {
			c.beginExit(chIdx, now)
		}
	case modeExit:
		cs.mode = modeRegular
		cs.ctx = ctxNone
		cs.oneShot = false
		cs.fillCooldownUntil = now + c.cfg.Mech.EnterLatency + c.cfg.Mech.ExitLatency
	}
}

// shouldContinue decides, at a round boundary, whether the channel
// stays in RNG mode for another round.
//
//drstrange:noalloc
func (c *Controller) shouldContinue(chIdx int, now int64) bool {
	cs := &c.chans[chIdx]
	switch cs.ctx {
	case ctxDemand:
		if len(c.rngQ) > 0 {
			return true
		}
		// Demand satisfied. If the channel is otherwise idle and the
		// buffer has room, roll straight into fill mode ("if the
		// channel remains idle after random number generation,
		// DR-STRaNGe continues to fill the random number buffer").
		if c.cfg.Policy == RNGAware && c.cfg.Fill == FillPredictor &&
			!c.entropySuspect &&
			c.cfg.Buffer != nil && !c.cfg.Buffer.Full() &&
			len(cs.readQ) == 0 && len(cs.writeQ) == 0 {
			cs.ctx = ctxFill
			return true
		}
		return false
	case ctxFill:
		if cs.oneShot {
			return false
		}
		if c.entropySuspect || c.cfg.Buffer == nil || c.cfg.Buffer.Full() {
			return false
		}
		// A fill excursion is an idle-period batch: once committed,
		// the channel generates for at least PeriodThreshold cycles
		// (the paper's 8-bit-batch granularity). This is exactly why
		// mispredicting a short period as long costs performance —
		// the arriving requests wait out the batch — and hence why the
		// idleness predictor earns its area.
		if now-cs.fillStart < PeriodThreshold {
			return true
		}
		// Past the minimum batch, filling continues only while the
		// channel stays under-utilized: strictly idle without
		// low-utilization prediction, or below the occupancy threshold
		// with it (Section 5.1.2 — the low-utilization mechanism
		// deliberately stalls a small number of requests to keep
		// generating).
		return len(cs.readQ) < c.fillOccupancyLimit() &&
			len(cs.writeQ) < writeDrainHigh
	default:
		return false
	}
}

// fillOccupancyLimit returns the read-queue occupancy below which
// buffer filling may proceed: 1 (strictly idle) without low-utilization
// prediction, else the configured threshold.
func (c *Controller) fillOccupancyLimit() int {
	if c.cfg.LowUtilThreshold > 0 {
		return c.cfg.LowUtilThreshold
	}
	return 1
}

// startRound begins one TRNG generation round on the channel.
//
//drstrange:noalloc
func (c *Controller) startRound(chIdx int, now int64) {
	cs := &c.chans[chIdx]
	cs.mode = modeRound
	cs.modeUntil = now + c.cfg.Mech.RoundLatency
	c.chs[chIdx].Block(now, cs.modeUntil)
}

// beginEnter switches a channel toward RNG mode.
//
//drstrange:noalloc
func (c *Controller) beginEnter(chIdx int, ctx rngContext, now int64, oneShot bool) {
	cs := &c.chans[chIdx]
	cs.mode = modeEnter
	cs.ctx = ctx
	cs.oneShot = oneShot
	if ctx == ctxFill {
		cs.fillStart = now
	}
	until := now + c.cfg.Mech.EnterLatency
	ru := c.chs[chIdx].RefreshUntil
	if ru > now {
		until = ru + c.cfg.Mech.EnterLatency
	}
	cs.modeUntil = until
	c.chs[chIdx].Block(now, until)
	c.stats.ModeSwitches++
	if ctx == ctxDemand {
		// RNG demand occupies the channel; any in-progress idle period
		// ends here for prediction purposes.
		c.endIdlePeriod(chIdx, now)
	}
}

// beginExit switches a channel back toward regular mode.
//
//drstrange:noalloc
func (c *Controller) beginExit(chIdx int, now int64) {
	cs := &c.chans[chIdx]
	cs.mode = modeExit
	cs.modeUntil = now + c.cfg.Mech.ExitLatency
	c.chs[chIdx].Block(now, cs.modeUntil)
}

// creditBits distributes freshly generated bits: demand first, then the
// buffer; under the oblivious baseline surplus bits are discarded
// (there is no buffer to hold them).
//
//drstrange:noalloc
func (c *Controller) creditBits(chIdx int, bits float64, now int64) {
	cs := &c.chans[chIdx]
	if cs.ctx == ctxDemand {
		if c.stallCtr > 0 && c.deprioRNG {
			// The deprioritized RNG queue is receiving service; reset
			// the starvation counter.
			c.stallCtr = 0
		}
		for bits > 0 && len(c.rngQ) > 0 {
			head := c.rngQ[0]
			need := head.BitsRemaining()
			take := bits
			if take > need {
				take = need
			}
			head.bitsFilled += take
			bits -= take
			if head.BitsRemaining() == 0 {
				head.Finish = now
				head.Done = true
				c.stats.RNGServed++
				c.stats.RNGLatencySum += now - head.Arrive
				// Shift rather than reslice so the queue keeps its
				// preallocated backing array (zero steady-state allocs).
				n := copy(c.rngQ, c.rngQ[1:])
				c.rngQ[n] = nil
				c.rngQ = c.rngQ[:n]
			}
		}
	}
	if bits > 0 && c.cfg.Buffer != nil && c.cfg.Policy == RNGAware && !c.entropySuspect {
		c.cfg.Buffer.AddBits(bits)
	}
}

// serviceRefresh walks the channel toward an all-bank refresh: close
// open banks, then issue REF.
//
//drstrange:noalloc
func (c *Controller) serviceRefresh(chIdx int, now int64) {
	ch := c.chs[chIdx]
	if ch.CanREF(now) {
		ch.IssueREF(now)
		return
	}
	for b := range ch.Banks {
		if ch.Banks[b].Open && ch.CanPRE(b, now) {
			ch.IssuePRE(b, now)
			return
		}
	}
}

// serveRegular performs regular-mode request service for one channel.
//
//drstrange:noalloc
func (c *Controller) serveRegular(chIdx int, now int64) {
	cs := &c.chans[chIdx]
	ch := c.chs[chIdx]

	// Write drain hysteresis.
	if len(cs.writeQ) >= writeDrainHigh {
		cs.draining = true
	}
	if len(cs.writeQ) <= writeDrainLow {
		cs.draining = false
	}
	if servesWrites(cs) {
		if idx := pickWrite(cs.writeQ, ch, now); idx >= 0 {
			req := cs.writeQ[idx]
			c.issueFor(chIdx, req, now)
			if req.Done {
				n := len(cs.writeQ)
				copy(cs.writeQ[idx:], cs.writeQ[idx+1:])
				cs.writeQ[n-1] = nil
				cs.writeQ = cs.writeQ[:n-1]
				// Writes are posted: the core dropped its reference at
				// submission, so the controller owns the recycle.
				c.Recycle(req)
			}
		}
		return
	}
	if len(cs.readQ) > 0 {
		idx := c.cfg.Scheduler.Pick(cs.readQ, chIdx, ch, now)
		if idx >= 0 {
			req := cs.readQ[idx]
			c.issueFor(chIdx, req, now)
			if req.Finish > 0 { // column command issued
				c.cfg.Scheduler.OnServed(req, chIdx)
				n := len(cs.readQ)
				copy(cs.readQ[idx:], cs.readQ[idx+1:])
				cs.readQ[n-1] = nil
				cs.readQ = cs.readQ[:n-1]
				if c.stallCtr > 0 && c.deprioRNG == false {
					// A request from the deprioritized regular queue
					// was scheduled; reset the stall counter.
					c.stallCtr = 0
				}
			}
		}
	}
}

// servesWrites reports whether the channel serves its write queue
// rather than its read queue: while draining, or when only writes wait.
//
//drstrange:noalloc
func servesWrites(cs *channelState) bool {
	return cs.draining || (len(cs.readQ) == 0 && len(cs.writeQ) > 0)
}

// pickWrite is the write queue's FR-FCFS: oldest issuable hit, else
// oldest issuable.
func pickWrite(q []*Request, ch *dram.Channel, now int64) int {
	best := -1
	for i, req := range q {
		switch readiness(req, ch, now) {
		case issuableHit:
			return i
		case issuable:
			if best < 0 {
				best = i
			}
		}
	}
	return best
}

// issueFor issues the next DRAM command for req: PRE on a row conflict,
// ACT on a closed bank, or the column command itself. Column commands
// complete the request (reads: data arrival; writes: posted at data
// end).
//
//drstrange:noalloc
func (c *Controller) issueFor(chIdx int, req *Request, now int64) {
	cs := &c.chans[chIdx]
	ch := c.chs[chIdx]
	b := &ch.Banks[req.Addr.Bank]
	switch {
	case b.RowHit(req.Addr.Row):
		if req.Kind == KindWrite {
			if ch.CanWR(req.Addr.Bank, now) {
				end := ch.IssueWR(req.Addr.Bank, now)
				req.Finish = end
				req.Done = true
				c.stats.WritesServed++
				cs.issuedThisTick = true
			}
			return
		}
		if ch.CanRD(req.Addr.Bank, now) {
			dataAt := ch.IssueRD(req.Addr.Bank, now)
			req.Finish = dataAt
			cs.completions = append(cs.completions, req)
			c.nextDone = min(c.nextDone, dataAt)
			cs.issuedThisTick = true
		}
	case b.Open:
		if ch.CanPRE(req.Addr.Bank, now) {
			ch.IssuePRE(req.Addr.Bank, now)
			cs.issuedThisTick = true
		}
	default:
		if ch.CanACT(req.Addr.Bank, now) {
			ch.IssueACT(req.Addr.Bank, req.Addr.Row, now)
			cs.issuedThisTick = true
		}
	}
}

// idleBookkeeping maintains idle-period state (for the predictor and
// the Figure 5/18 profiles) and fires buffer fills.
//
//drstrange:noalloc
func (c *Controller) idleBookkeeping(chIdx int, now int64) {
	cs := &c.chans[chIdx]
	if cs.mode != modeRegular {
		return
	}
	if !cs.periodActive && len(cs.readQ) == 0 && len(cs.writeQ) == 0 {
		cs.periodActive = true
		cs.periodStart = now
		cs.periodKey = cs.lastAddr
		cs.greedyIdle = 0
		if c.cfg.Predictor != nil {
			cs.periodPred = c.cfg.Predictor.PredictLong(chIdx, cs.lastAddr)
		} else {
			cs.periodPred = true
		}
	}

	if c.greedyCounting(cs) {
		// The Greedy Idle comparison design: once the idle streak
		// reaches the threshold, 8 bits materialize for free, and
		// 8 more per further threshold's worth of idleness.
		cs.greedyIdle++
		if cs.greedyIdle >= PeriodThreshold {
			c.cfg.Buffer.AddBits(8)
			cs.greedyIdle = 0
		}
	}
	if c.cfg.Fill == FillPredictor && c.fillTriggerReady(chIdx, now) {
		c.beginEnter(chIdx, ctxFill, now, false)
	}
}

// greedyCounting reports whether the Greedy Idle design's free-fill
// counter advances on this channel: both queues are empty and the
// buffer (which Validate requires of every fill policy) has room. The
// bound and the skip credit call it for every regular-mode channel, so
// it is written to stay within the compiler's inlining budget.
//
//drstrange:noalloc
func (c *Controller) greedyCounting(cs *channelState) bool {
	return c.cfg.Fill == FillGreedy && len(cs.readQ)+len(cs.writeQ) == 0 && !c.cfg.Buffer.Full()
}

// fillCandidate is the state half of the buffer-fill trigger: entropy
// trusted, a buffer with room, no RNG demand, no write drain, and
// either an idle period predicted long or, with low-utilization
// prediction (Section 5.1.2), a read queue shallow enough to stall
// with writes under the drain watermark.
//
//drstrange:noalloc
func (c *Controller) fillCandidate(cs *channelState) bool {
	if c.entropySuspect || len(c.rngQ) > 0 || cs.draining || c.cfg.Buffer == nil || c.cfg.Buffer.Full() {
		return false
	}
	if len(cs.readQ) == 0 && len(cs.writeQ) == 0 {
		return cs.periodPred
	}
	return c.cfg.LowUtilThreshold > 0 && len(cs.readQ) < c.cfg.LowUtilThreshold &&
		len(cs.writeQ) < writeDrainHigh
}

// fillTriggerReady evaluates the buffer-fill start condition: a fill
// candidate, a cooldown elapsed since the last RNG-mode excursion (so
// fills cannot thrash the channel), no command issued this tick, and,
// on an under-utilized channel, the predictor calling the upcoming
// period long.
//
//drstrange:noalloc
func (c *Controller) fillTriggerReady(chIdx int, now int64) bool {
	cs := &c.chans[chIdx]
	if now < cs.fillCooldownUntil || cs.issuedThisTick || !c.fillCandidate(cs) {
		return false
	}
	if len(cs.readQ) == 0 && len(cs.writeQ) == 0 || c.cfg.Predictor == nil {
		return true
	}
	return c.cfg.Predictor.PredictLong(chIdx, cs.lastAddr)
}

// endIdlePeriod closes channel chIdx's idle period (a request arrived
// or RNG demand claimed the channel), trains the predictor, and updates
// the confusion matrix.
//
//drstrange:noalloc
func (c *Controller) endIdlePeriod(chIdx int, now int64) {
	cs := &c.chans[chIdx]
	if !cs.periodActive {
		return
	}
	length := now - cs.periodStart
	cs.periodActive = false
	c.stats.IdlePeriods++
	actualLong := length >= PeriodThreshold
	if actualLong {
		c.stats.LongIdlePeriods++
	}
	if c.recordIdle {
		c.idleLog = append(c.idleLog, length)
	}
	if c.cfg.Predictor != nil {
		c.cfg.Predictor.OnPeriodEnd(chIdx, cs.periodKey, length)
		switch {
		case cs.periodPred && actualLong:
			c.stats.PredTP++
		case cs.periodPred && !actualLong:
			c.stats.PredFP++
		case !cs.periodPred && !actualLong:
			c.stats.PredTN++
		default:
			c.stats.PredFN++
		}
	}
}
