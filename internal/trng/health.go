package trng

// Online entropy health monitoring: NIST SP 800-90B-style continuous
// health tests over the word stream a Mechanism emits, plus
// deterministic degradation injection for testing how a serving system
// survives entropy failure.
//
// The simulator credits generated bits abstractly (creditBits), so the
// monitored word stream is synthesized: EntropyStream turns the
// (round-bits, completion-tick) sequence of a mechanism into concrete
// 64-bit words through a splitmix64 generator seeded per shard. Round
// completions happen at identical ticks under every engine (the engine
// invariant), so the word
// stream — and therefore every trip tick — replays identically too.
//
// Faults are pure functions of (stream state, tick): a FaultProfile
// schedules bias ramps, stuck bits, or periodic burst corruption by
// tick, so a degraded run is exactly as reproducible as a clean one.
//
// All monitor state is fixed-size and allocated at construction; the
// per-word observation path performs zero heap allocations.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// HealthConfig parameterizes the continuous health tests. The zero
// value of each field selects the default noted on it; the defaults
// are tuned so a clean uniform stream's false-trip probability over a
// full serve run is far below 1e-6 (the zero-false-positive property
// the serve goldens pin).
type HealthConfig struct {
	// Enabled switches monitoring on (the resolved DRSTRANGE_HEALTH /
	// scenario "health" setting).
	Enabled bool
	// RCTCutoff is the repetition count test's cutoff: a run of this
	// many identical consecutive byte samples trips (SP 800-90B 4.4.1).
	// Default 8 (clean stream: ~256^-7 per byte).
	RCTCutoff int
	// APTWindow/APTCutoff parameterize the adaptive proportion test
	// (SP 800-90B 4.4.2): within each non-overlapping window of
	// APTWindow byte samples, the window's first value recurring
	// APTCutoff times trips. Defaults 512/20 (clean stream: ~7e-13 per
	// window).
	APTWindow int
	APTCutoff int
	// MonobitWindow/MonobitZ parameterize the windowed monobit drift
	// check: over a sliding window of MonobitWindow bits the ones-count
	// z statistic is converted to a p-value with the same math as the
	// offline Monobit quality test, and p below the MonobitZ
	// equivalent trips. Defaults 4096 bits / z = 7 (~2.6e-12 per word).
	// MonobitWindow must be a multiple of 64.
	MonobitWindow int
	MonobitZ      float64
	// RequalTicks is the re-qualification window: a tripped source
	// stays quarantined this many ticks before it may serve again
	// (default 15000 — 75 us of simulated time).
	RequalTicks int64
	// FailDeadlineTicks bounds how long a request may wait at a
	// tripped shard before it is failed back to the client instead of
	// waiting out the quarantine (default 10000).
	FailDeadlineTicks int64
}

// DefaultHealthConfig returns the enabled configuration with every
// default filled in.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{Enabled: true}.WithDefaults()
}

// WithDefaults returns the configuration with every zero field
// replaced by its documented default.
func (c HealthConfig) WithDefaults() HealthConfig {
	if c.RCTCutoff <= 0 {
		c.RCTCutoff = 8
	}
	if c.APTWindow <= 0 {
		c.APTWindow = 512
	}
	if c.APTCutoff <= 0 {
		c.APTCutoff = 20
	}
	if c.MonobitWindow <= 0 {
		c.MonobitWindow = 4096
	}
	if c.MonobitZ <= 0 {
		c.MonobitZ = 7
	}
	if c.RequalTicks <= 0 {
		c.RequalTicks = 15_000
	}
	if c.FailDeadlineTicks <= 0 {
		c.FailDeadlineTicks = 10_000
	}
	return c
}

// Validate reports configuration errors.
func (c HealthConfig) Validate() error {
	c = c.WithDefaults()
	if c.MonobitWindow%64 != 0 {
		return fmt.Errorf("trng: MonobitWindow %d is not a multiple of 64", c.MonobitWindow)
	}
	if c.APTCutoff > c.APTWindow {
		return fmt.Errorf("trng: APTCutoff %d exceeds APTWindow %d", c.APTCutoff, c.APTWindow)
	}
	return nil
}

// HealthVerdict is one ObserveWord outcome.
type HealthVerdict uint8

// ObserveWord outcomes: healthy, or which continuous test tripped.
const (
	HealthOK HealthVerdict = iota
	TripRepetition
	TripProportion
	TripMonobit
)

// String names the verdict ("ok", "rct", "apt", "monobit").
func (v HealthVerdict) String() string {
	switch v {
	case HealthOK:
		return "ok"
	case TripRepetition:
		return "rct"
	case TripProportion:
		return "apt"
	case TripMonobit:
		return "monobit"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// HealthMonitor runs the continuous health tests over a word stream.
// It is a pure detector: trip policy (quarantine, re-qualification)
// belongs to the caller, which Resets the monitor when a quarantined
// source re-qualifies. Not safe for concurrent use; one monitor per
// entropy source.
type HealthMonitor struct {
	cfg HealthConfig

	// Repetition count test: current run of identical bytes.
	rctLast   byte
	rctRun    int
	rctPrimed bool

	// Adaptive proportion test: position and first-value count within
	// the current non-overlapping window.
	aptFirst byte
	aptCount int
	aptPos   int

	// Monobit drift: ring of per-word popcounts over the sliding
	// window, with the running ones total.
	ring     []uint8
	ringPos  int
	ringFull bool
	ones     int

	// monoTrip[k] precomputes the full-window verdict for a ones count
	// of k: pFromZ((2k-n)/sqrt(n)) < pFromZ(MonobitZ). The ones count
	// is the only per-word input once the ring is full, so the erfc
	// drops off the hot path without changing a single decision.
	// Immutable after construction and shared by Clone.
	monoTrip []bool
}

// NewHealthMonitor builds a monitor for cfg (defaults filled in). The
// ring buffer is the only allocation; ObserveWord allocates nothing.
func NewHealthMonitor(cfg HealthConfig) *HealthMonitor {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &HealthMonitor{
		cfg:      cfg,
		ring:     make([]uint8, cfg.MonobitWindow/64),
		monoTrip: monoTripTable(cfg.MonobitWindow, cfg.MonobitZ),
	}
}

// monoTripTables caches monobit verdict tables by (window, z): a table
// costs MonobitWindow+1 erfc evaluations, every monitor of a sweep
// shares the same parameters, and sweeps construct one monitor per
// shard per point — without the cache the table build is the dominant
// per-point cost of health monitoring.
var monoTripTables sync.Map

type monoTripKey struct {
	window int
	z      float64
}

func monoTripTable(window int, zCut float64) []bool {
	key := monoTripKey{window, zCut}
	if t, ok := monoTripTables.Load(key); ok {
		return t.([]bool)
	}
	pCut := pFromZ(zCut)
	n := float64(window)
	monoTrip := make([]bool, window+1)
	for k := range monoTrip {
		z := (2*float64(k) - n) / math.Sqrt(n)
		monoTrip[k] = pFromZ(z) < pCut
	}
	t, _ := monoTripTables.LoadOrStore(key, monoTrip)
	return t.([]bool)
}

// ObserveWord feeds one 64-bit word through all three tests and
// returns the first trip, or HealthOK. On a trip the word's remaining
// bytes are not examined; callers quarantine the source and Reset the
// monitor at re-qualification, so partial observation never leaks into
// a healthy stream.
//
//drstrange:noalloc
func (m *HealthMonitor) ObserveWord(w uint64) HealthVerdict {
	pc := uint8(bits.OnesCount64(w))
	if m.ringFull {
		m.ones -= int(m.ring[m.ringPos])
	}
	m.ring[m.ringPos] = pc
	m.ones += int(pc)
	m.ringPos++
	if m.ringPos == len(m.ring) {
		m.ringPos = 0
		m.ringFull = true
	}
	if m.ringFull && m.monoTrip[m.ones] {
		return TripMonobit
	}
	// Fast path. In a healthy stream almost every word has no two
	// adjacent equal bytes, no first byte equal to the previous word's
	// last, no byte equal to the APT window's reference value, and no
	// APT window boundary inside it. Such a word advances no run or
	// proportion counter, so its whole effect on the byte loop below is
	// rctLast = top byte, rctRun = 1, aptPos += 8 — and any word that
	// could trip or move a counter fails one of the two zero-byte
	// probes and takes the loop instead.
	if m.rctPrimed && m.aptPos != 0 && m.aptPos+8 <= m.cfg.APTWindow {
		adj := w ^ (w<<8 | uint64(m.rctLast))
		ref := w ^ (uint64(m.aptFirst) * 0x0101010101010101)
		if !hasZeroByte(adj) && !hasZeroByte(ref) {
			m.rctLast, m.rctRun = byte(w>>56), 1
			m.aptPos += 8
			if m.aptPos == m.cfg.APTWindow {
				m.aptPos = 0
			}
			return HealthOK
		}
	}
	for i := 0; i < 8; i++ {
		b := byte(w >> (8 * i))
		if m.rctPrimed && b == m.rctLast {
			m.rctRun++
			if m.rctRun >= m.cfg.RCTCutoff {
				return TripRepetition
			}
		} else {
			m.rctLast, m.rctRun, m.rctPrimed = b, 1, true
		}
		if m.aptPos == 0 {
			m.aptFirst, m.aptCount = b, 1
		} else if b == m.aptFirst {
			m.aptCount++
			if m.aptCount >= m.cfg.APTCutoff {
				return TripProportion
			}
		}
		m.aptPos++
		if m.aptPos == m.cfg.APTWindow {
			m.aptPos = 0
		}
	}
	return HealthOK
}

// hasZeroByte reports whether any byte of v is zero (the standard
// subtract-and-mask probe): the fast-path detector for "some byte of w
// equals b" after xoring w with b broadcast to every lane.
//
//drstrange:noalloc
func hasZeroByte(v uint64) bool {
	return (v-0x0101010101010101) & ^v & 0x8080808080808080 != 0
}

// Clone returns an independent monitor at the same stream position:
// both copies produce identical verdicts on the identical future word
// sequence (snapshot/restore support).
func (m *HealthMonitor) Clone() *HealthMonitor {
	cp := *m
	cp.ring = make([]uint8, len(m.ring))
	copy(cp.ring, m.ring)
	return &cp
}

// Reset clears all streaming state — the re-qualification of a
// quarantined source starts its tests from scratch, exactly like a
// fresh monitor.
func (m *HealthMonitor) Reset() {
	m.rctPrimed, m.rctRun = false, 0
	m.aptPos, m.aptCount = 0, 0
	for i := range m.ring {
		m.ring[i] = 0
	}
	m.ringPos, m.ringFull, m.ones = 0, false, 0
}

// Fault profile kinds accepted by FaultProfile.Kind, the scenario
// schema's "fault" field, rngbench -fault, and DRSTRANGE_FAULT.
const (
	// FaultBiasRamp ramps the per-bit probability of a one from 0.5 up
	// to Bias over RampTicks starting at StartTick — the
	// temperature-drift failure mode (gradual, caught by the monobit
	// drift check).
	FaultBiasRamp = "bias-ramp"
	// FaultStuckBits forces StuckMask's bits to one from StartTick on
	// — failed DRAM cells (caught by the adaptive proportion test).
	FaultStuckBits = "stuck-bits"
	// FaultBurst zeroes every word during a BurstTicks-long window out
	// of each PeriodTicks period from StartTick on — intermittent
	// interference (caught by the repetition count test within one
	// word).
	FaultBurst = "burst"
)

// FaultNames lists the accepted fault profile kinds, sorted.
func FaultNames() []string {
	names := []string{FaultBiasRamp, FaultStuckBits, FaultBurst}
	sort.Strings(names)
	return names
}

// ValidFault reports whether kind names a fault profile.
func ValidFault(kind string) bool {
	switch kind {
	case FaultBiasRamp, FaultStuckBits, FaultBurst:
		return true
	}
	return false
}

// FaultProfile schedules a deterministic entropy degradation on a
// mechanism's word stream. Every transform is a pure function of the
// stream's generator state and the word's emission tick, so a profile
// replays identically under both engines and any shard count. The zero value injects nothing.
type FaultProfile struct {
	// Kind selects the degradation ("" = none; see FaultNames).
	Kind string
	// StartTick is the fault onset (words emitted earlier are clean).
	StartTick int64
	// RampTicks / Bias shape FaultBiasRamp: the ones probability ramps
	// linearly from 0.5 at StartTick to Bias at StartTick+RampTicks.
	RampTicks int64
	Bias      float64
	// StuckMask is FaultStuckBits' OR mask.
	StuckMask uint64
	// PeriodTicks / BurstTicks shape FaultBurst.
	PeriodTicks int64
	BurstTicks  int64
}

// DefaultFaultProfile returns the canonical profile for kind — the
// parameters the scenario schema's "fault" field and DRSTRANGE_FAULT
// select. Unknown or empty kinds return the zero (no-fault) profile.
func DefaultFaultProfile(kind string) FaultProfile {
	switch kind {
	case FaultBiasRamp:
		return FaultProfile{Kind: kind, StartTick: 20_000, RampTicks: 20_000, Bias: 0.95}
	case FaultStuckBits:
		return FaultProfile{Kind: kind, StartTick: 20_000, StuckMask: 0xAAAAAAAAAAAAAAAA}
	case FaultBurst:
		return FaultProfile{Kind: kind, StartTick: 20_000, PeriodTicks: 20_000, BurstTicks: 2_500}
	}
	return FaultProfile{}
}

// EntropyStream synthesizes the concrete 64-bit words a mechanism
// emits, with an optional fault applied. Credit accumulates a round's
// bits; Emit draws the next whole word. The generator is splitmix64:
// one uint64 of state, a few shifts per word, and full determinism
// from the seed.
type EntropyStream struct {
	state uint64
	carry float64
	fault FaultProfile
	// WordsEmitted counts Emit calls (reporting).
	WordsEmitted int64
}

// NewEntropyStream seeds a stream; fault may be the zero profile.
func NewEntropyStream(seed uint64, fault FaultProfile) EntropyStream {
	return EntropyStream{state: seed, fault: fault}
}

// Credit accumulates bits fractional generated bits and returns how
// many whole 64-bit words are now available to Emit.
//
//drstrange:noalloc
func (s *EntropyStream) Credit(bits float64) int {
	s.carry += bits
	n := 0
	for s.carry >= 64 {
		s.carry -= 64
		n++
	}
	return n
}

// Emit draws the next word of the stream as of tick, applying the
// fault transform scheduled for that tick.
//
//drstrange:noalloc
func (s *EntropyStream) Emit(tick int64) uint64 {
	w := s.next()
	s.WordsEmitted++
	f := &s.fault
	if f.Kind == "" || tick < f.StartTick {
		return w
	}
	switch f.Kind {
	case FaultBiasRamp:
		// Per-bit ones probability p = 0.5 + q/2, via OR with a mask
		// whose bits are one with probability q (biasMask). q ramps
		// 0 -> 2*(Bias-0.5) across RampTicks, then holds.
		frac := 1.0
		if f.RampTicks > 0 && tick < f.StartTick+f.RampTicks {
			frac = float64(tick-f.StartTick) / float64(f.RampTicks)
		}
		q := frac * 2 * (f.Bias - 0.5)
		return w | s.biasMask(q)
	case FaultStuckBits:
		return w | f.StuckMask
	case FaultBurst:
		if f.PeriodTicks > 0 && (tick-f.StartTick)%f.PeriodTicks < f.BurstTicks {
			return 0
		}
	}
	return w
}

// next is splitmix64: the standard 64-bit mixer, statistically clean
// enough that the offline quality suite and the continuous tests both
// treat its output as ideal.
func (s *EntropyStream) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// biasMask returns a word whose bits are one with probability q
// (quantized to 1/256), built by binary expansion: processing the
// quantized probability's digits from least significant, OR-ing in a
// fresh random word for a one digit and AND-ing for a zero halves-and-
// shifts the probability exactly. Always draws 8 words, so the stream
// position is a pure function of the emission count.
func (s *EntropyStream) biasMask(q float64) uint64 {
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	k := uint32(q*256 + 0.5)
	if k >= 256 {
		// Quantized to certainty: still draw the 8 words.
		for i := 0; i < 8; i++ {
			s.next()
		}
		return ^uint64(0)
	}
	var m uint64
	for i := 0; i < 8; i++ {
		r := s.next()
		if k&(1<<i) != 0 {
			m = r | m
		} else {
			m = r & m
		}
	}
	return m
}
