package workload

import "math"

// Closed-loop client population: N clients that each submit one RNG
// request, wait for its completion, think for an exponentially
// distributed gap, and submit again — the "millions of users" knob the
// open-loop arrival processes cannot express, because an open-loop
// stream keeps offering load however far the server falls behind,
// while a closed loop self-throttles (a slow server slows its own
// arrival stream). Shed or failed requests retry after a capped
// exponential backoff with deterministic jitter.
//
// Everything here is a pure function of (seed, per-client submission
// history): think gaps and retry jitter are stateless hash draws, and
// the ready queue is an explicit binary heap ordered by (tick, client).
// Two replays — any engine, any StepTo slicing —
// therefore pop the same clients in the same order at the same ticks,
// which is what makes the closed-loop serve goldens byte-identical
// across engines and worker counts.

// clientEvent is one pending client wake-up: the tick the client is
// ready to submit its next request.
type clientEvent struct {
	tick   int64
	client int32
}

// ClosedLoop schedules a closed-loop client population's submissions.
// The serving layer pops ready clients, injects one request per pop,
// and reports each completion back through OnSuccess/OnFailure; the
// loop then schedules that client's next wake-up.
type ClosedLoop struct {
	think int64
	seed  uint64
	heap  []clientEvent // min-heap on (tick, client)

	nsub    []int32 // per-client successful submissions (think-draw index)
	attempt []int32 // per-client consecutive failures (backoff exponent)
}

// NewClosedLoop builds a population of clients with mean think time
// think (ticks, must be positive). Initial wake-ups are staggered
// deterministically across [0, think), so the population does not
// submit in one synchronized burst at tick 0.
func NewClosedLoop(clients int, think int64, seed uint64) *ClosedLoop {
	if clients <= 0 {
		panic("workload: closed loop needs at least one client")
	}
	if think <= 0 {
		panic("workload: closed loop needs a positive think time")
	}
	c := &ClosedLoop{
		think:   think,
		seed:    seed,
		heap:    make([]clientEvent, 0, clients),
		nsub:    make([]int32, clients),
		attempt: make([]int32, clients),
	}
	for i := 0; i < clients; i++ {
		at := int64(mix64(seed^uint64(i+1)*0x9E3779B97F4A7C15) % uint64(think))
		c.push(clientEvent{tick: at, client: int32(i)})
	}
	return c
}

// Len reports the number of pending wake-ups.
func (c *ClosedLoop) Len() int { return len(c.heap) }

// NextReady returns the earliest pending wake-up tick, or MaxInt64 when
// every client is in flight.
//
//drstrange:noalloc
func (c *ClosedLoop) NextReady() int64 {
	if len(c.heap) == 0 {
		return math.MaxInt64
	}
	return c.heap[0].tick
}

// PopReady pops the earliest ready client at or before now, with the
// attempt number of the submission it is about to make (0 for a fresh
// request, >= 1 for a retry). Ties pop in client order.
//
//drstrange:noalloc
func (c *ClosedLoop) PopReady(now int64) (client, attempt int, ok bool) {
	if len(c.heap) == 0 || c.heap[0].tick > now {
		return 0, 0, false
	}
	ev := c.pop()
	return int(ev.client), int(c.attempt[ev.client]), true
}

// OnSuccess records a completed request: the client thinks for an
// exponentially distributed gap (mean think, capped at 16×think so one
// extreme draw cannot idle a client past the measurement window) and
// wakes again at finish+gap.
//
//drstrange:noalloc
func (c *ClosedLoop) OnSuccess(client int, finish int64) {
	c.attempt[client] = 0
	n := c.nsub[client]
	c.nsub[client] = n + 1
	u := unit(mix64(c.seed + uint64(client+1)*0x9E3779B97F4A7C15 + uint64(n+1)*0xD1B54A32D192ED03))
	gap := 1 + int64(-float64(c.think)*math.Log(1-u))
	if cap := 16 * c.think; gap > cap {
		gap = cap
	}
	c.push(clientEvent{tick: finish + gap, client: int32(client)})
}

// OnFailure records a shed, deadline-missed, or failed request: the
// client retries after RetryBackoff and the incremented attempt number
// is returned (1 = first retry).
//
//drstrange:noalloc
func (c *ClosedLoop) OnFailure(client int, finish int64) int {
	a := c.attempt[client] + 1
	c.attempt[client] = a
	c.push(clientEvent{tick: finish + RetryBackoff(c.seed, client, int(a)), client: int32(client)})
	return int(a)
}

// RetryBackoff returns the closed-loop retry delay in ticks before
// attempt (>= 1): capped exponential backoff — 256 ticks doubling per
// attempt up to 16384 — plus deterministic jitter in [0, backoff) that
// is a pure function of (seed, client, attempt), so every replay of a
// run backs off identically. Exported so the replay test can pin the
// sequence against the serving layer's actual schedule.
func RetryBackoff(seed uint64, client, attempt int) int64 {
	if attempt < 1 {
		attempt = 1
	}
	d := int64(16384)
	if attempt < 8 {
		d = 256 << (attempt - 1)
	}
	j := mix64(seed ^ 0xB5297A4D3A2D9FEB ^ uint64(client+1)*0x9E3779B97F4A7C15 ^ uint64(attempt)*0xD1B54A32D192ED03)
	return d + int64(j%uint64(d))
}

// push inserts a wake-up, sifting up on (tick, client).
//
//drstrange:noalloc
func (c *ClosedLoop) push(ev clientEvent) {
	//drstrange:alloc-ok amortized: the heap's backing array is sized to the population at construction
	c.heap = append(c.heap, ev)
	i := len(c.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(c.heap[i], c.heap[p]) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

// pop removes and returns the minimum wake-up.
//
//drstrange:noalloc
func (c *ClosedLoop) pop() clientEvent {
	top := c.heap[0]
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && eventLess(c.heap[l], c.heap[m]) {
			m = l
		}
		if r < n && eventLess(c.heap[r], c.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		c.heap[i], c.heap[m] = c.heap[m], c.heap[i]
		i = m
	}
	return top
}

// eventLess orders wake-ups by (tick, client) — the total order that
// makes pop sequences replay-identical.
func eventLess(a, b clientEvent) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.client < b.client
}

// mix64 is the SplitMix64 finalizer: a stateless avalanche of one
// 64-bit key into an independent draw.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a 64-bit draw to [0, 1) with full 53-bit precision.
func unit(u uint64) float64 { return float64(u>>11) / (1 << 53) }
