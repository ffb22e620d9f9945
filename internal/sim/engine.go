package sim

// The simulation engines. System.StepTo advances a simulation with one
// of two inner loops over the same component models:
//
//   - The event-driven engine (default) walks executed ticks only. After
//     ticking every component at `now`, it asks each component for
//     NextEventTick(now) — a lower bound on the next tick at which that
//     component's state can change — and fast-forwards to the minimum,
//     batch-crediting the skipped ticks' per-tick accumulators (core
//     stall counters, RNG-mode tick counts, active-standby energy
//     ticks, greedy-fill idle counters, starvation counters) through
//     AccountSkip.
//   - The ticked engine (RunConfig.Engine = "ticked") is the reference
//     tick-by-tick walk, kept selectable for differential testing.
//
// The engine invariant: NextEventTick must never overshoot a state
// change. For every component and every tick t in
// (now, NextEventTick(now)), ticking the component at t — given that no
// other component acts either, which the minimum guarantees — must be a
// no-op up to the accumulators AccountSkip replays. Undershooting is
// always safe: the engine executes a tick that turns out to be a no-op
// and asks again. Anything time-based a component adds (a new timer, a
// new threshold counter) must either be reflected in its NextEventTick
// bound or force `now+1`.
//
// Under this invariant the two engines produce bit-identical results —
// every stat, every figure byte — which TestEngineDifferential*
// enforces across designs, mechanisms, schedulers, and priorities.
//
// The engine is per-run configuration, not process state:
// RunConfig.Engine and ServeConfig.Engine name it, and Normalized fills
// "" from DefaultEngine (DRSTRANGE_ENGINE, then event; see env.go).
// Concurrent runs under different engines never see each other's
// choice, and the memo keys on the resolved name.

// Engine names accepted by RunConfig.Engine, ServeConfig.Engine, and
// DRSTRANGE_ENGINE.
const (
	// EngineEvent is the event-driven, tick-skipping engine (default).
	EngineEvent = "event"
	// EngineTicked is the reference tick-by-tick engine.
	EngineTicked = "ticked"
)
