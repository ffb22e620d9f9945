package memctrl

// Event-driven support for the controller: NextEventTick computes a
// lower bound on the next tick at which Tick could change any state
// beyond the per-tick accumulators, and AccountSkip batch-credits those
// accumulators for a proven-quiescent run of skipped ticks.
//
// The invariant the simulation engine relies on (see internal/sim):
// for every tick t with now < t < NextEventTick(now), calling Tick(t)
// on the post-Tick(now) state would change nothing except
//
//   - dram.Channel.ActiveTick   (+1 per tick with an open bank),
//   - Stats.TicksRNGMode        (+1 per tick per channel in RNG mode),
//   - channelState.greedyIdle   (+1 per tick greedyCounting holds),
//   - stallCtr                  (+1 per tick stallCounting holds),
//
// all of which AccountSkip replays in one step. NextEventTick must
// never overshoot a real state change; it may undershoot freely (the
// engine just executes a tick that turns out to be a no-op and asks
// again).
//
// Every tick decision a bound or a skip credit depends on is stated
// once, in a predicate the tick calls too: servesWrites (which queue a
// channel serves), fillCandidate (whether a fill may trigger),
// greedyCounting and stallCounting (whether those counters advance).
//
// No bound is lower than now+1, so the scan returns it as soon as any
// term reaches it: at an RNG-mode channel's boundary, inside the
// queued-request scan, and after each channel's terms.
func (c *Controller) NextEventTick(now int64) int64 {
	// A consumed-next-arbitration override must be consumed on the very
	// next tick, exactly as the ticked engine would.
	if c.forceOverride {
		return now + 1
	}
	soonest := now + 1

	// Pending completions pop at a known tick (each FIFO is in finish
	// order: the column and buffer-serve latencies are constant).
	next := min(c.cfg.Scheduler.NextEventTick(now), c.nextDone)
	if next <= soonest {
		return soonest
	}

	if len(c.rngQ) > 0 {
		// planDemand may switch a regular-mode channel into RNG demand
		// mode. Its decision depends only on state that cannot change
		// during a skip, and this tick's call already acted on it — but
		// a channel that returned to regular mode during this very tick
		// was invisible to it, and a refresh-blocked channel could not
		// obey it. Be conservative: any regular-mode channel that is
		// not refresh-blocked forces full ticking while demand is
		// queued. (Refresh-blocked channels become eligible at their
		// RefreshUntil, which the per-channel scan below includes.)
		for i := range c.chans {
			if c.chans[i].mode == modeRegular && now >= c.chs[i].RefreshUntil {
				return soonest
			}
		}
		// All channels are mode-switched or refresh-blocked: only the
		// starvation counter advances, reaching its limit at a known
		// tick.
		if c.stallCounting() {
			if t := now + (StallLimit - c.stallCtr); t < next {
				next = t
			}
		}
	}

	for i := range c.chans {
		cs := &c.chans[i]
		ch := c.chs[i]

		if cs.mode != modeRegular {
			// Enter/round/exit boundaries are the only RNG-mode events.
			if cs.modeUntil <= soonest {
				return soonest
			}
			if cs.modeUntil < next {
				next = cs.modeUntil
			}
			continue
		}

		if now < ch.RefreshUntil {
			// A refresh in flight blocks the channel entirely.
			if ch.RefreshUntil < next {
				next = ch.RefreshUntil
			}
			continue
		}
		if ch.RefreshDue(now) {
			// Mid-refresh-walk: the controller precharges banks toward
			// REF on upcoming ticks.
			return soonest
		}
		if ch.NextRefresh < next {
			next = ch.NextRefresh
		}

		// Queued demand: the earliest tick any queued request's next
		// command becomes legal, in the queue servesWrites selects. It
		// reads the stored drain flag, which serveRegular first updates
		// from the current queue lengths, so a write completion that
		// ends a drain can leave reads this bound did not cover: a
		// known divergence of the event engine from the ticked one.
		if len(cs.readQ) > 0 || len(cs.writeQ) > 0 {
			q := cs.readQ
			if servesWrites(cs) {
				q = cs.writeQ
			}
			for _, req := range q {
				t := ch.EarliestIssue(req.Addr.Bank, req.Addr.Row, req.Kind == KindWrite)
				if t <= soonest {
					return soonest
				}
				if t < next {
					next = t
				}
			}
		}

		// Buffer-fill trigger: from the cooldown's end on, every tick
		// either triggers a fill or consults the idleness predictor
		// (consultations mutate predictor statistics, so such a tick may
		// never be skipped).
		if c.cfg.Fill == FillPredictor && c.fillCandidate(cs) {
			if t := max(soonest, cs.fillCooldownUntil); t < next {
				next = t
			}
		}

		// Greedy fill: the counter fires a deposit at a known tick.
		if c.greedyCounting(cs) {
			if t := now + (PeriodThreshold - cs.greedyIdle); t < next {
				next = t
			}
		}
		if next <= soonest {
			return soonest
		}
	}
	return max(next, soonest)
}

// AccountSkip replays n skipped quiescent ticks' worth of per-tick
// accumulators onto the controller, for ticks now+1 .. now+n (now being
// the last executed tick). It must mirror exactly what n Tick calls
// would have accumulated given that NextEventTick(now) > now+n.
func (c *Controller) AccountSkip(now, n int64) {
	for i := range c.chans {
		cs := &c.chans[i]
		ch := c.chs[i]
		ch.CountTicks(n)
		if cs.mode != modeRegular {
			c.stats.TicksRNGMode += n
			continue
		}
		if now < ch.RefreshUntil {
			// Blocked ticks never reach idle bookkeeping.
			continue
		}
		if c.greedyCounting(cs) {
			cs.greedyIdle += n
		}
	}
	if c.stallCounting() {
		c.stallCtr += n
	}
}
