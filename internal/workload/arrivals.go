package workload

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"drstrange/internal/prng"
)

// Arrivals generates the request arrival times of an open-loop load: a
// non-decreasing stream of memory-cycle ticks at which clients submit
// RNG requests, independent of when earlier requests complete. This is
// the serving-side counterpart of the closed-loop instruction traces in
// trace.go — offered load is fixed by the process, and queueing delay
// shows up as latency rather than as reduced demand.
type Arrivals interface {
	// NextArrival returns the tick of the next request arrival and
	// true. Ticks are non-decreasing; multiple arrivals on one tick are
	// allowed (bursts). A process that walks its phases or rate
	// intervals until an arrival lands pauses once its clock reaches
	// stop: it returns that clock and false, and a later call resumes
	// the walk where it paused. No arrival gap is drawn once the clock
	// reaches stop, and the draws made up to the pause are a prefix of
	// an unbounded walk's, so pausing never changes the stream. Pass
	// math.MaxInt64 for no horizon.
	NextArrival(stop int64) (int64, bool)
}

// Arrival process names accepted by NewArrivals (cmd/rngbench's
// -arrival flag).
const (
	ArrivalPoisson = "poisson"
	ArrivalBursty  = "bursty"
	ArrivalDiurnal = "diurnal"
)

// ArrivalNames lists the accepted arrival process names, sorted.
func ArrivalNames() []string {
	names := []string{ArrivalPoisson, ArrivalBursty, ArrivalDiurnal}
	sort.Strings(names)
	return names
}

// ValidArrival reports whether name is an accepted arrival process
// name (one of ArrivalNames). It is the validation entry point for
// callers that only hold a spec — the scenario API and the CLI flag
// layer; NewArrivals is the construction entry point.
func ValidArrival(name string) bool {
	return slices.Contains(ArrivalNames(), name)
}

// NewArrivals builds the named arrival process at ratePerTick mean
// requests per memory cycle. Burstiness shapes the bursty process (it
// is ignored by the others); the diurnal process modulates a full
// day-night cycle onto DiurnalPeriod ticks.
func NewArrivals(name string, ratePerTick float64, burstiness float64, seed uint64) (Arrivals, error) {
	switch name {
	case ArrivalPoisson:
		return NewPoissonArrivals(ratePerTick, seed), nil
	case ArrivalBursty:
		return NewBurstyArrivals(ratePerTick, burstiness, seed), nil
	case ArrivalDiurnal:
		return NewRateTraceArrivals(DiurnalRates(ratePerTick), DiurnalPeriod, seed), nil
	default:
		return nil, fmt.Errorf("workload: unknown arrival process %q (valid: %v)", name, ArrivalNames())
	}
}

// poissonArrivals is the memoryless baseline: a discrete-time Bernoulli
// process (the Poisson analog on a cycle-quantized clock) with
// geometric inter-arrival gaps of mean 1/rate.
type poissonArrivals struct {
	p   float64 // per-tick arrival probability
	rng *prng.Xoshiro256
	now int64
}

// NewPoissonArrivals returns a Poisson (discrete Bernoulli) arrival
// process with the given mean rate in requests per memory cycle.
// Rates above 1 are served as multiple arrivals per tick.
func NewPoissonArrivals(ratePerTick float64, seed uint64) Arrivals {
	if ratePerTick <= 0 {
		panic("workload: arrival rate must be positive")
	}
	return &poissonArrivals{p: ratePerTick, rng: prng.NewXoshiro256(seed ^ 0xA221)}
}

// NextArrival ignores the horizon: one draw always lands an arrival.
func (a *poissonArrivals) NextArrival(int64) (int64, bool) {
	// gapFor consumes one geometric draw at probability min(p, 1);
	// p >= 1 degenerates to an arrival every tick plus extra same-tick
	// arrivals for the integer surplus, keeping the mean exact.
	a.now += gapFor(a.rng, a.p)
	return a.now, true
}

// gapFor draws the inter-arrival gap (in ticks, >= 0 with same-tick
// bursts only when rate >= 1) for a process of the given per-tick rate.
func gapFor(rng *prng.Xoshiro256, rate float64) int64 {
	if rate >= 1 {
		// More than one request per tick on average: arrivals space
		// 0 or 1 ticks apart so the mean gap is 1/rate.
		if rng.Bernoulli(1 / rate) {
			return 1
		}
		return 0
	}
	return 1 + int64(rng.Geometric(rate))
}

// burstyArrivals is a two-state modulated process (an MMPP): an ON
// phase arriving well above the mean rate and an OFF phase mirrored
// below it, with geometric phase dwell times measured in ticks (equal
// expected dwell per phase keeps the time-averaged rate exact — a
// per-arrival flip would skew toward the slow phase's long gaps).
type burstyArrivals struct {
	onRate     float64
	offRate    float64
	pFlip      float64 // per-tick phase-flip hazard
	on         bool
	phaseUntil int64
	rng        *prng.Xoshiro256
	now        int64
}

// NewBurstyArrivals returns a bursty arrival process: mean ratePerTick
// overall, with ON phases at (1+3b)x the mean and OFF phases mirrored
// below it so the long-run average stays exact. b = 0 degenerates to
// Poisson; b is clamped to 0.32 so the OFF phase keeps a positive rate.
func NewBurstyArrivals(ratePerTick, b float64, seed uint64) Arrivals {
	if ratePerTick <= 0 {
		panic("workload: arrival rate must be positive")
	}
	if b < 0 {
		b = 0
	}
	if b > 0.32 {
		b = 0.32
	}
	on := ratePerTick * (1 + 3*b)
	off := 2*ratePerTick - on
	a := &burstyArrivals{
		onRate:  on,
		offRate: off,
		pFlip:   1.0 / 1500, // mean phase dwell: 1500 ticks
		on:      true,
		rng:     prng.NewXoshiro256(seed ^ 0xB57),
	}
	a.phaseUntil = 1 + int64(a.rng.Geometric(a.pFlip))
	return a
}

func (a *burstyArrivals) NextArrival(stop int64) (int64, bool) {
	for a.now < stop {
		rate := a.offRate
		if a.on {
			rate = a.onRate
		}
		gap := gapFor(a.rng, rate)
		if a.now+gap < a.phaseUntil {
			a.now += gap
			return a.now, true
		}
		// The gap crosses the phase boundary: geometric gaps are
		// memoryless, so jumping to the boundary and redrawing at the
		// new phase's rate is exact.
		a.now = a.phaseUntil
		a.on = !a.on
		a.phaseUntil = a.now + 1 + int64(a.rng.Geometric(a.pFlip))
	}
	return a.now, false
}

// DiurnalPeriod is the tick length of one simulated day-night cycle for
// the diurnal rate trace: long enough for several load transitions
// inside a serving window, short enough that a window sees whole
// cycles.
const DiurnalPeriod int64 = 20_000

// DiurnalRates returns a per-interval rate trace shaped like a daily
// load curve — a raised sinusoid from ~25% of peak (night trough) to
// peak — whose mean is meanRate. Feed it to NewRateTraceArrivals.
func DiurnalRates(meanRate float64) []float64 {
	const n = 16
	rates := make([]float64, n)
	for i := range rates {
		phase := 2 * math.Pi * float64(i) / n
		rates[i] = meanRate * (1 + 0.6*math.Sin(phase))
	}
	return rates
}

// rateTraceArrivals replays a piecewise-constant rate trace: interval i
// of length period/len(rates) arrives at rates[i], wrapping around —
// the "diurnal trace" process, and the hook for replaying measured
// request-rate logs.
type rateTraceArrivals struct {
	rates    []float64
	interval int64
	period   int64
	rng      *prng.Xoshiro256
	now      int64
}

// NewRateTraceArrivals returns an arrival process that follows the
// given per-interval rates (requests per tick), cycling over period
// ticks.
func NewRateTraceArrivals(rates []float64, period int64, seed uint64) Arrivals {
	if len(rates) == 0 || period < int64(len(rates)) {
		panic("workload: rate trace needs rates and a period covering them")
	}
	for _, r := range rates {
		if r <= 0 {
			panic("workload: rate trace rates must be positive")
		}
	}
	return &rateTraceArrivals{
		rates:    rates,
		interval: period / int64(len(rates)),
		period:   period,
		rng:      prng.NewXoshiro256(seed ^ 0xD1E5),
	}
}

func (a *rateTraceArrivals) NextArrival(stop int64) (int64, bool) {
	for a.now < stop {
		idx := (a.now % a.period) / a.interval
		if idx >= int64(len(a.rates)) {
			idx = int64(len(a.rates)) - 1
		}
		// The current interval's end (the last interval absorbs the
		// period's remainder when it does not divide evenly).
		periodStart := a.now - a.now%a.period
		boundary := periodStart + (idx+1)*a.interval
		if idx == int64(len(a.rates))-1 {
			boundary = periodStart + a.period
		}
		gap := gapFor(a.rng, a.rates[idx])
		if a.now+gap < boundary {
			a.now += gap
			return a.now, true
		}
		// The gap crosses into the next interval: geometric gaps are
		// memoryless, so jump to the boundary and redraw at the new
		// interval's rate — otherwise trough-rate gaps bleed into peak
		// intervals and the realized mean rate sags below nominal.
		a.now = boundary
	}
	return a.now, false
}
