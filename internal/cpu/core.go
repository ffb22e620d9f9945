// Package cpu implements the trace-driven processor model of the
// simulated system: a 4 GHz, 3-wide core with a 128-entry instruction
// window (the paper's Table 1), in the style of Ramulator's core model.
// Instructions dispatch in order into the window; compute instructions
// complete immediately, memory instructions complete when the memory
// controller finishes them, and the window retires in order — so an
// outstanding load (or an outstanding random-number request) at the
// window head stalls the core once the window drains or fills.
//
// Clock domains: the memory system ticks at 200 MHz (5 ns memory
// cycles) while the core runs at 4 GHz, so each memory tick carries a
// budget of 20 CPU cycles x 3-wide = 60 instruction slots. Modeling the
// core at memory-tick granularity keeps the 186-workload evaluation
// tractable while preserving memory-boundedness.
//
// Representation: the window stores only blocking memory operations as
// ring entries, each carrying the count of free-retiring instructions
// (compute bundles and posted stores) dispatched ahead of it; frees
// after the last blocking entry accumulate in a tail counter. Retire
// and dispatch therefore cost O(memory ops) per tick instead of
// O(issue width), with instruction-count semantics — window occupancy,
// retirement order, per-tick budgets — identical to an entry-per-
// instruction window.
package cpu

import (
	"drstrange/internal/memctrl"
)

// OpKind classifies a trace operation.
type OpKind uint8

// Trace operation kinds.
const (
	// OpCompute is a bundle of non-memory instructions only.
	OpCompute OpKind = iota
	// OpLoad is a last-level-cache-missing read.
	OpLoad
	// OpStore is a writeback.
	OpStore
	// OpRand is a 64-bit random number request (RNG applications).
	OpRand
)

// Op is one trace record: NonMem compute instructions followed by one
// memory operation (none for OpCompute).
type Op struct {
	NonMem int
	Kind   OpKind
	Line   uint64
}

// Trace is an instruction stream. Traces are infinite: synthetic
// generators wrap around rather than ending, so a core can always
// continue generating memory traffic after its measured instruction
// budget completes (the standard multiprogrammed-simulation
// methodology).
type Trace interface {
	NextOp() Op
}

// MemPort is the core's connection to the memory controller.
type MemPort interface {
	SubmitRead(line uint64, core int, now int64) (*memctrl.Request, bool)
	SubmitWrite(line uint64, core int, now int64) bool
	SubmitRNG(core int, now int64) (*memctrl.Request, bool)
	// Recycle hands a completed request back to the controller's
	// freelist. The core calls it when the request retires from the
	// instruction window — the system's last reference; the request
	// must not be touched afterwards.
	Recycle(req *memctrl.Request)
}

// Stats are the per-core measurements the experiments consume. All
// counters freeze once the core retires its instruction target.
type Stats struct {
	Retired    int64
	FinishTick int64 // tick the instruction target was reached
	Finished   bool

	Loads  int64
	Stores int64
	Rands  int64

	// StallMemTicks counts memory ticks with zero retirement while a
	// regular load blocked the window head; StallRNGTicks the same for
	// random number requests. Their sum is the memory stall time used
	// by the unfairness metric (MCPI).
	StallMemTicks int64
	StallRNGTicks int64
}

// MPKI returns misses (loads+stores) per kilo-instruction.
func (s *Stats) MPKI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Loads+s.Stores) / float64(s.Retired) * 1000
}

// MCPI returns memory stall ticks (including RNG stalls) per
// instruction — the paper's memory-related-slowdown ingredient.
func (s *Stats) MCPI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.StallMemTicks+s.StallRNGTicks) / float64(s.Retired)
}

// winEntry is one blocking memory operation in the window, preceded in
// program order by freeBefore free-retiring instructions.
type winEntry struct {
	req        *memctrl.Request
	freeBefore int
}

// The paper's Table 1 core: a 4 GHz, 3-wide core with a 128-entry
// instruction window, clocked 20 CPU cycles per 200 MHz memory cycle.
const (
	WindowSize    = 128
	IssueWidth    = 3
	CPUPerMemTick = 20

	// budget is the instruction slots per memory tick.
	budget = IssueWidth * CPUPerMemTick
)

// Core is one simulated processor core.
type Core struct {
	ID int

	trace Trace
	mem   MemPort

	// Instruction window: blocking entries in a ring indexed with the
	// mask WindowSize-1 (WindowSize is a power of two), free-retiring
	// instructions counted inside the entries and in tailFree. size
	// tracks total window occupancy in instructions.
	win      [WindowSize]winEntry
	head     int
	nEntries int
	tailFree int
	size     int

	// Dispatch state for the op currently streaming in. pending is held
	// by value: a fresh heap allocation per memory operation would
	// dominate the hot loop's allocation profile.
	computeLeft int
	pending     Op   // memory part awaiting queue space
	hasPending  bool // pending holds a valid op
	// blocked records that the last submit met a full controller queue.
	// A pending op that is not blocked merely ran out of issue slots
	// and submits on the next tick.
	blocked bool

	target int64
	stats  Stats
}

// NewCore builds a core that executes trace through mem, measuring the
// first target instructions.
func NewCore(id int, trace Trace, mem MemPort, target int64) *Core {
	if target <= 0 {
		panic("cpu: instruction target must be positive")
	}
	return &Core{ID: id, trace: trace, mem: mem, target: target}
}

// Stats returns the core's measurement snapshot.
func (c *Core) Stats() Stats { return c.stats }

// Finished reports whether the instruction target has been reached.
func (c *Core) Finished() bool { return c.stats.Finished }

// Tick advances the core by one memory cycle: retire up to the budget
// from the window head, then dispatch up to the budget new
// instructions.
//
//drstrange:noalloc
func (c *Core) Tick(now int64) {
	retired := c.retire()
	c.dispatch(now)

	if c.stats.Finished {
		return
	}
	c.stats.Retired += int64(retired)
	if retired == 0 {
		// Dispatch runs after retire, so a freshly filled window may
		// lead with free instructions dispatched this tick: those retire
		// next tick, and stalledOn does not count them as a stall.
		c.AccountSkip(1)
	}
	if c.stats.Retired >= c.target {
		c.stats.Finished = true
		c.stats.FinishTick = now
	}
}

//drstrange:noalloc
func (c *Core) retire() int {
	n := 0
	for n < budget && c.nEntries > 0 {
		e := &c.win[c.head]
		if e.freeBefore > 0 {
			take := budget - n
			if take > e.freeBefore {
				take = e.freeBefore
			}
			e.freeBefore -= take
			c.size -= take
			n += take
			if e.freeBefore > 0 {
				return n // budget exhausted mid-run
			}
		}
		if n >= budget {
			return n
		}
		if !e.req.Done {
			return n
		}
		// Retirement drops the last reference to the request; hand it
		// back to the controller's freelist.
		c.mem.Recycle(e.req)
		e.req = nil
		c.head = (c.head + 1) & (WindowSize - 1)
		c.nEntries--
		c.size--
		n++
	}
	// The tail of free instructions follows every blocking entry in
	// program order: it may only retire once the entries are drained.
	if c.nEntries == 0 && n < budget && c.tailFree > 0 {
		take := budget - n
		if take > c.tailFree {
			take = c.tailFree
		}
		c.tailFree -= take
		c.size -= take
		n += take
	}
	return n
}

//drstrange:noalloc
func (c *Core) dispatch(now int64) {
	slots := budget
	for slots > 0 && c.size < WindowSize {
		if c.computeLeft > 0 {
			take := slots
			if take > c.computeLeft {
				take = c.computeLeft
			}
			if free := WindowSize - c.size; take > free {
				take = free
			}
			c.computeLeft -= take
			c.tailFree += take
			c.size += take
			slots -= take
			continue
		}
		if c.hasPending {
			c.blocked = !c.submit(&c.pending, now)
			if c.blocked {
				return // queue full: in-order dispatch stalls
			}
			c.hasPending = false
			slots--
			continue
		}
		op := c.trace.NextOp()
		c.computeLeft = op.NonMem
		if op.Kind != OpCompute {
			c.pending = op
			c.hasPending = true
		}
		if op.NonMem == 0 && op.Kind == OpCompute {
			// Defensive: a zero op would spin forever.
			return
		}
	}
}

// submit sends the memory part of an op to the controller; it returns
// false on queue-full backpressure.
//
//drstrange:noalloc
func (c *Core) submit(op *Op, now int64) bool {
	switch op.Kind {
	case OpLoad:
		req, ok := c.mem.SubmitRead(op.Line, c.ID, now)
		if !ok {
			return false
		}
		c.push(req)
		if !c.stats.Finished {
			c.stats.Loads++
		}
	case OpStore:
		if !c.mem.SubmitWrite(op.Line, c.ID, now) {
			return false
		}
		// Stores are posted: they occupy a window slot but retire
		// freely, exactly like compute.
		c.tailFree++
		c.size++
		if !c.stats.Finished {
			c.stats.Stores++
		}
	case OpRand:
		req, ok := c.mem.SubmitRNG(c.ID, now)
		if !ok {
			return false
		}
		c.push(req)
		if !c.stats.Finished {
			c.stats.Rands++
		}
	}
	return true
}

// push appends a blocking memory request, absorbing the accumulated
// tail of free instructions as its program-order prefix.
//
//drstrange:noalloc
func (c *Core) push(req *memctrl.Request) {
	tail := (c.head + c.nEntries) & (WindowSize - 1)
	c.win[tail] = winEntry{req: req, freeBefore: c.tailFree}
	c.tailFree = 0
	c.nEntries++
	c.size++
}

// stalledOn returns the pending memory request at the window head, or
// nil when the head can retire (free instructions, a completed request)
// or the window is empty. A tick that retires nothing counts as a stall
// tick exactly when it returns a request.
//
//drstrange:noalloc
func (c *Core) stalledOn() *memctrl.Request {
	if c.nEntries == 0 {
		return nil
	}
	if e := &c.win[c.head]; e.freeBefore == 0 && !e.req.Done {
		return e.req
	}
	return nil
}

// NextEventTick returns a lower bound (> now) on the next tick at which
// the core can make local progress: retire the window head or dispatch
// an instruction. A pending memory op that last tick's dispatch left
// only for lack of issue slots submits next tick. A core that can do
// neither is fully stalled — on a pending memory request at the window
// head, or on queue-full backpressure with dispatch blocked in order —
// and only a memory-controller event can unblock it, so it reports the
// far-future sentinel and lets the controller's own NextEventTick bound
// the skip.
//
//drstrange:noalloc
func (c *Core) NextEventTick(now int64) int64 {
	if c.size > 0 && c.stalledOn() == nil {
		return now + 1 // the window head can retire
	}
	if c.size < WindowSize && (c.computeLeft > 0 || !c.hasPending || !c.blocked) {
		return now + 1 // can dispatch from the op stream
	}
	return 1 << 62
}

// AccountSkip credits n ticks that retire nothing to the core's stall
// counters: Tick calls it for one such tick, and the event engine for a
// run of skipped fully-stalled ones. Each counts as a memory (or RNG)
// stall tick while stalledOn reports a request. Counters freeze after
// the instruction target.
//
//drstrange:noalloc
func (c *Core) AccountSkip(n int64) {
	req := c.stalledOn()
	if c.stats.Finished || req == nil {
		return
	}
	if req.Kind == memctrl.KindRNG {
		c.stats.StallRNGTicks += n
	} else {
		c.stats.StallMemTicks += n
	}
}
