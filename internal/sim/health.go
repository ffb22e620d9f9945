package sim

import (
	"math"

	"drstrange/internal/trng"
)

// Shard-level entropy health: each channel shard owns a continuous
// health monitor (trng.HealthMonitor) observing the word stream its
// mechanism emits, synthesized deterministically from the shard's
// completed generation rounds (trng.EntropyStream). A trip quarantines
// the shard — its buffer is purged, buffer serving and filling stop,
// the routers steer new arrivals to healthy shards, and requests
// already queued behind the trip fail after a deadline — until a
// re-qualification window elapses and the monitor restarts clean.
//
// Everything here preserves the engine invariant: rounds complete at
// identical ticks under both engines, the word
// stream and fault schedule are pure functions of (seed, round
// history, tick), and a quarantined shard's wake-up at its
// re-qualification tick is folded into its event bound. Trip ticks,
// recovery ticks, and every availability counter are therefore
// byte-identical across all engine axes.

// shardHealth is one shard's health-monitoring state.
type shardHealth struct {
	mon    *trng.HealthMonitor
	stream trng.EntropyStream

	roundBits float64 // bits per completed generation round

	tripped      bool
	suspectUntil int64 // recovery tick of the current quarantine
	tripTick     int64 // tick the current quarantine began

	// Reported counters.
	trips     int64
	firstTrip int64 // tick of the first trip (valid when trips > 0)
	downtime  int64 // quarantined ticks clipped to the availability window
	failed    int64 // requests failed by the degraded-mode deadline
	rerouted  int64 // arrivals sent here because their natural shard was tripped
}

// newShardHealth builds shard k's monitor state: the synthesized word
// stream is seeded like the shard's workload traces (distinct per
// shard, shard 0 keeps the configured seed).
func newShardHealth(k int, cfg RunConfig) *shardHealth {
	seed := cfg.Seed + uint64(k)*shardSeedStride
	return &shardHealth{
		mon:       trng.NewHealthMonitor(cfg.Health),
		stream:    trng.NewEntropyStream(seed^0xD1B54A32D192ED03, cfg.Fault),
		roundBits: cfg.Mech.RoundBits,
		firstTrip: -1,
	}
}

// healthy reports whether the shard may serve (no monitor, or monitor
// not tripped) — the router predicate.
func healthyShard(sh *channelShard) bool {
	return sh.health == nil || !sh.health.tripped
}

// observeRound feeds one completed generation round into the shard's
// monitor. The round's bits were already credited (detection latency
// is one round by construction); whole words crossed by the credit are
// synthesized and observed. While quarantined the stream still
// advances — the word sequence stays a pure function of the round
// history, not of trip timing — but observation is suspended until the
// monitor restarts at re-qualification.
//
//drstrange:noalloc
func (s *System) observeRound(sh *channelShard, now int64) {
	h := sh.health
	for n := h.stream.Credit(h.roundBits); n > 0; n-- {
		w := h.stream.Emit(now)
		if h.tripped {
			continue
		}
		if h.mon.ObserveWord(w) != trng.HealthOK {
			s.tripShard(sh, now)
		}
	}
}

// tripShard quarantines the shard: purge and stop serving buffered
// entropy, schedule re-qualification, and make the trip visible to the
// router through tripsLive.
//
//drstrange:noalloc
func (s *System) tripShard(sh *channelShard, now int64) {
	h := sh.health
	h.tripped = true
	h.tripTick = now
	h.suspectUntil = now + trng.RequalTicks
	h.trips++
	if h.firstTrip < 0 {
		h.firstTrip = now
	}
	s.tripsLive++
	sh.ctrl.SetEntropySuspect(true)
}

// recoverShard ends the quarantine at tick now: account the downtime,
// re-enable buffer serving and filling, and restart the monitor from a
// clean slate.
//
//drstrange:noalloc
func (s *System) recoverShard(sh *channelShard, now int64) {
	h := sh.health
	h.downtime += overlapTicks(h.tripTick, now, s.availFrom, s.availUntil)
	h.tripped = false
	s.tripsLive--
	sh.ctrl.SetEntropySuspect(false)
	h.mon.Reset()
}

// requalifyAt moves the shard's re-qualification to tick at: the shard
// recovers at its first executed tick at or past it. The cached event
// bound drops with it, because the event engine would otherwise skip
// ahead to a bound computed against the old recovery tick. Lowering the
// bound is enough: the next event pass reads every shard's bound.
func (s *System) requalifyAt(sh *channelShard, at int64) {
	sh.health.suspectUntil = at
	sh.bound = min(sh.bound, at)
}

// healthTick runs the shard's per-executed-tick health policy, before
// admission: recovery when the re-qualification window has elapsed,
// else deadline-failing of requests stuck behind the quarantine. Both
// transitions happen only at ticks the shard executes; the shard's
// event bound is clamped to suspectUntil (componentBound) and a
// non-empty waiting queue forces per-tick stepping, so neither can be
// overshot by the event engines.
//
//drstrange:noalloc
func (s *System) healthTick(sh *channelShard, t int64) {
	h := sh.health
	if !h.tripped {
		return
	}
	if t >= h.suspectUntil {
		s.recoverShard(sh, t)
		return
	}
	s.failExpired(sh, t)
}

// failExpired fails the tripped shard's waiting requests whose
// degraded-mode deadline has passed. Only requests that have not
// submitted any word are failed — a partially submitted head holds
// controller-side state and completes after recovery instead, so the
// scan skips it. Behind that head the queue is ordered by priority,
// and equal priorities keep arrival order, so each priority band's
// expired requests form a prefix of the band: the scan fails that
// prefix, binary-searches past the rest of the band, and stops in the
// lowest band (priority 0), so an unclassed queue costs a head-only
// scan. Failing mirrors completion: the request finishes now with
// Failed set, flows through the completion hook, and its handle is
// recycled. The survivors then close the gaps toward the back, so
// failures at the front just advance the head.
//
//drstrange:noalloc
func (s *System) failExpired(sh *channelShard, t int64) {
	h := sh.health
	q := sh.waiting
	i, last := sh.waitHead, -1
	if i < len(q) && q[i].wordsSubmitted > 0 {
		i++
	}
	for i < len(q) {
		ir := q[i]
		if t-ir.SubmitTick >= trng.FailDeadlineTicks {
			ir.Failed = true
			ir.FinishTick = t
			q[i], last = nil, i
			i++
			sh.live--
			h.failed++
			s.retire(ir)
			continue
		}
		if ir.prio <= 0 {
			break
		}
		lo, hi := i+1, len(q)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); q[m].prio < ir.prio {
				hi = m
			} else {
				lo = m + 1
			}
		}
		i = lo
	}
	if last < 0 {
		return
	}
	w := last
	for r := last; r >= sh.waitHead; r-- {
		if q[r] != nil {
			q[w] = q[r]
			w--
		}
	}
	clear(q[sh.waitHead : w+1])
	sh.waitHead = w + 1
	if sh.waitHead == len(q) {
		sh.waiting, sh.waitHead = q[:0], 0
	}
}

// SetAvailabilityWindow restricts downtime accounting to ticks in
// [from, until): the serving layer's measurement window, so warmup and
// drain quarantine does not count against availability. Without a
// window the whole run counts.
func (s *System) SetAvailabilityWindow(from, until int64) {
	s.availFrom, s.availUntil = from, until
}

// overlapTicks returns |[a, b) ∩ [lo, hi)|.
func overlapTicks(a, b, lo, hi int64) int64 {
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}

// ServeHealth aggregates a serve point's availability story across
// shards: whole-run trip/failure counters plus window-clipped
// availability. Availability is 1 - (downtime ticks)/(shards × window)
// — the fraction of shard-ticks inside the measurement window on which
// the fleet's shards were serving — and Nines is -log10(1 - A),
// capped at 12 (a fully available window reports 12, not +Inf).
type ServeHealth struct {
	Trips            int64   `json:"trips"`
	DowntimeTicks    int64   `json:"downtime_ticks"`
	FailedRequests   int64   `json:"failed_requests"`
	ReroutedRequests int64   `json:"rerouted_requests"`
	Availability     float64 `json:"availability"`
	Nines            float64 `json:"nines"`
}

// HealthStats aggregates the per-shard health counters (zero without
// monitoring) with availability computed over windowTicks per shard.
func (s *System) HealthStats(windowTicks int64) ServeHealth {
	var h ServeHealth
	for _, st := range s.ShardStats() {
		h.Trips += st.Trips
		h.DowntimeTicks += st.DowntimeTicks
		h.FailedRequests += st.FailedRequests
		h.ReroutedRequests += st.ReroutedRequests
	}
	total := windowTicks * int64(len(s.shards))
	if total > 0 {
		h.Availability = 1 - float64(h.DowntimeTicks)/float64(total)
	} else {
		h.Availability = 1
	}
	h.Nines = ninesOf(h.Availability)
	return h
}

// ninesOf converts an availability fraction to "nines", capped at 12.
func ninesOf(a float64) float64 {
	if a >= 1 {
		return 12
	}
	if a <= 0 {
		return 0
	}
	n := -math.Log10(1 - a)
	if n > 12 {
		return 12
	}
	return n
}
