package workload

// ChunkedArrivals adapts an Arrivals stream for bounded look-ahead
// consumption: the serving layer interleaves arrival generation with
// simulation, pulling only the arrivals due inside the next StepTo
// slice instead of materializing the whole window's schedule up front.
// Peek exposes the next arrival tick without consuming it, so a
// consumer can decide "due in this slice?" before committing, and the
// draw stream is identical to calling NextArrival directly — one
// underlying draw per arrival, in order — which keeps chunked and
// up-front consumers deterministic peers.
type ChunkedArrivals struct {
	src    Arrivals
	next   int64
	primed bool
}

// NewChunked wraps src with one-arrival look-ahead. No draw happens
// until the first Peek.
func NewChunked(src Arrivals) *ChunkedArrivals {
	return &ChunkedArrivals{src: src}
}

// Peek returns the tick of the next arrival without consuming it. When
// the process pauses at stop before an arrival lands (see
// Arrivals.NextArrival), Peek returns a tick at or past stop and
// buffers nothing, and a later Peek resumes the process where it
// paused.
func (c *ChunkedArrivals) Peek(stop int64) int64 {
	if !c.primed {
		t, ok := c.src.NextArrival(stop)
		if !ok {
			return t
		}
		c.next, c.primed = t, true
	}
	return c.next
}

// Next consumes and returns the arrival the last Peek returned; call it
// only after a Peek that returned a tick below its stop.
func (c *ChunkedArrivals) Next() int64 {
	c.primed = false
	return c.next
}

// TakeThrough consumes every arrival with tick <= limit and tick <
// stop, in order, invoking fn for each — the chunk a serving slice
// [now, limit] admits, with stop as the hard end of arrivals (the
// measurement window's close). It returns the number consumed.
// Generation stops at stop: the first arrival at or beyond it stays
// buffered, and a process whose clock reaches stop before an arrival
// lands pauses there, so generation cost tracks the consumed horizon,
// not the process's future.
func (c *ChunkedArrivals) TakeThrough(limit, stop int64, fn func(tick int64)) int {
	n := 0
	for {
		t := c.Peek(stop)
		if t >= stop || t > limit {
			return n
		}
		fn(c.Next())
		n++
	}
}
