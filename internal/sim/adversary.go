package sim

import "drstrange/internal/trng"

// Adversarial interference under entropy health monitoring: Section 6's
// attacker times its own RNG requests to learn whether a victim is
// draining the random number buffer. Health monitoring adds a third
// actor — the entropy source itself can degrade, trip the continuous
// tests, and quarantine the channel. This experiment measures the
// attacker's view across that lifecycle: while the source is healthy,
// while it is quarantined (the buffer is purged and bypassed, so every
// probe is served on demand), and after re-qualification.
//
// The interesting interaction is that quarantine closes the timing
// channel as a side effect: with buffer serving suspended, probe
// latency no longer depends on the victim's drain pattern, so the
// attacker's advantage collapses to ~0 for the duration — at the cost
// of every request paying on-demand generation latency.

// HealthAdversary measures the buffer timing side channel through a
// trip/quarantine/re-qualification cycle, on base's engine. It drives
// the probe system's own shard health monitor through the cycle.
// Deterministic: the probe schedule and the word streams are pure
// functions of the fixed seeds and the tick clock.
func HealthAdversary(base RunConfig) []Figure {
	trials := min(max(int(base.Instructions/1000), 30), 1000)
	f := Figure{
		ID:     "Section6-adv",
		Title:  "Buffer timing side channel across an entropy-fault quarantine cycle",
		Labels: []string{"miss idle", "miss active", "advantage", "bits/window"},
	}
	p := newProber(base, false, trng.DefaultHealthConfig())
	sh := p.sys.shards[0]
	h := sh.health
	h.stream = trng.NewEntropyStream(0x5EC6ADF0, trng.FaultProfile{})
	p.idle(secWarmTicks)
	f.Series = append(f.Series, Series{Name: "healthy", Values: p.channel(trials)})

	// Trip: swap in a permanently faulted word stream (an unbounded burst
	// starting now) and drain the buffer until a generation round carries
	// the faulted words into the monitor. The quarantine is pinned open
	// so the phase measures a stable quarantined system.
	h.stream = trng.NewEntropyStream(0x5EC6ADF1, trng.FaultProfile{
		Kind:        trng.FaultBurst,
		StartTick:   p.sys.Now(),
		PeriodTicks: 1 << 40,
		BurstTicks:  1 << 40,
	})
	for i := 0; i < 1000 && !h.tripped; i++ {
		p.request(0)
	}
	if !h.tripped {
		panic("sim: health adversary failed to trip on an all-zero stream")
	}
	h.suspectUntil = farFuture
	f.Series = append(f.Series, Series{Name: "quarantined", Values: p.channel(trials)})

	// Re-qualify: restore a clean stream, recover on the next tick, and
	// re-warm the buffer.
	h.stream = trng.NewEntropyStream(0x5EC6ADF2, trng.FaultProfile{})
	p.sys.requalifyAt(sh, p.sys.Now())
	p.idle(secWarmTicks)
	f.Series = append(f.Series, Series{Name: "recovered", Values: p.channel(trials)})

	f.Notes = append(f.Notes,
		"quarantine purges and bypasses the buffer, so probe latency stops depending on the victim: the channel closes while entropy is suspect",
		"after re-qualification the buffer refills and the healthy-phase channel returns")
	return []Figure{f}
}
