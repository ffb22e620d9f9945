package memctrl

import (
	"fmt"

	"drstrange/internal/dram"
	"drstrange/internal/trng"
)

// Buffer is the random number buffer abstraction the controller serves
// RNG requests from and deposits idle-generated bits into. The concrete
// implementation (a small SRAM word buffer) lives in internal/core,
// since the buffering mechanism is part of the paper's contribution.
type Buffer interface {
	// TakeWord removes one 64-bit word if available and reports
	// whether it did.
	TakeWord() bool
	// AddBits deposits freshly generated bits, silently capping at
	// capacity (excess entropy is discarded, as the paper's design
	// stops generation when the buffer is full).
	AddBits(bits float64)
	// Full reports whether no more bits fit.
	Full() bool
	// Words reports how many complete 64-bit words are buffered.
	Words() int
}

// PartitionedBuffer is an optional refinement of Buffer: when the
// configured buffer also implements it, the controller serves each
// application from its own partition (the Section 6 side/covert
// channel countermeasure).
type PartitionedBuffer interface {
	Buffer
	// TakeWordFor removes one 64-bit word from core's partition if
	// available.
	TakeWordFor(core int) bool
}

// IdlePredictor decides whether an idle DRAM period that is just
// starting will be long enough to generate random numbers in (the
// paper's Section 5.1.2). Implementations: the simple 2-bit
// saturating-counter table and the Q-learning agent, both in
// internal/core.
type IdlePredictor interface {
	// PredictLong is consulted when channel ch's request queues become
	// empty (or at a low-utilization decision point), keyed by the
	// last accessed memory address.
	PredictLong(ch int, lastAddr uint64) bool
	// OnPeriodEnd trains the predictor once the period's true length
	// is known.
	OnPeriodEnd(ch int, lastAddr uint64, length int64)
}

// RNGPolicy selects how the controller integrates the DRAM TRNG.
type RNGPolicy uint8

// RNG integration policies.
const (
	// RNGOblivious is the paper's baseline: RNG requests trigger
	// immediate generation on all channels, stalling regular requests
	// (Section 3).
	RNGOblivious RNGPolicy = iota
	// RNGAware is DR-STRaNGe's integration: a separate RNG queue,
	// priority-based arbitration between the RNG and regular read
	// queues, and buffer-first service (Section 5.2).
	RNGAware
)

// FillPolicy selects how the random number buffer is refilled.
type FillPolicy uint8

// Buffer fill policies.
const (
	// FillNone never generates ahead of demand (no buffer filling).
	FillNone FillPolicy = iota
	// FillPredictor generates during idle (and optionally
	// low-utilization) periods the IdlePredictor approves — the
	// DR-STRaNGe buffering mechanism. With a nil predictor every idle
	// period is treated as long (the paper's "simple buffering
	// mechanism" / "DR-STRaNGe (No Pred.)" configuration).
	FillPredictor
	// FillGreedy is the paper's Greedy Idle comparison design: once an
	// idle period reaches PeriodThreshold cycles, 8 random bits appear
	// in the buffer at zero cost, 8 more per further threshold worth
	// of idleness.
	FillGreedy
)

// The controller's fixed parameters: the paper's Table 1 queue sizes
// and Section 5 thresholds, plus the buffer delivery latency and the
// write-drain watermarks.
const (
	ReadQueueCap  = 32 // per channel
	WriteQueueCap = 32 // per channel
	RNGQueueCap   = 32 // controller-wide

	// PeriodThreshold is the idle-period length (cycles) that counts
	// as "long".
	PeriodThreshold = 40
	// StallLimit is the starvation-prevention bound (cycles) on how
	// long the deprioritized queue may wait.
	StallLimit = 100
	// bufferServeLatency is the cycles needed to deliver a buffered
	// word to the requester.
	bufferServeLatency = 2
	// A channel starts draining writes when writeDrainHigh are queued
	// and stops at writeDrainLow.
	writeDrainHigh = 24
	writeDrainLow  = 8
)

// Config assembles a controller. The zero value is not usable; start
// from DefaultConfig. It holds only data: observers register on the
// built Controller (OnRNGRound, RecordIdlePeriods).
type Config struct {
	Geom   dram.Geometry
	Timing dram.Timing
	Mech   trng.Mechanism

	// Scheduler orders the regular read queue. nil means FR-FCFS+Cap
	// with the paper's column cap of 16.
	Scheduler Scheduler

	Policy RNGPolicy
	Fill   FillPolicy

	// Buffer is the random number buffer; nil disables buffering.
	Buffer Buffer
	// Predictor gates idle-period fills under FillPredictor; nil means
	// every idle period is assumed long.
	Predictor IdlePredictor

	// LowUtilThreshold enables low-utilization fills when the read
	// queue holds fewer than this many requests (paper: 4; 0 disables).
	LowUtilThreshold int

	// Priorities maps core index to its OS-assigned priority (higher
	// wins). nil means all equal; otherwise it must cover NumCores.
	Priorities []int

	// NumCores sizes per-core bookkeeping (RNG-app marking).
	NumCores int
}

// DefaultConfig returns the paper's Table 1 configuration with the
// given core count: 4-channel DDR3-1600, 32-entry queues, FR-FCFS with
// a column cap of 16, D-RaNGe as the TRNG, RNG-oblivious integration
// (callers opt into DR-STRaNGe features explicitly).
func DefaultConfig(nCores int) Config {
	g := dram.DefaultGeometry()
	return Config{
		Geom:             g,
		Timing:           dram.DDR3_1600(),
		Mech:             trng.DRaNGe(),
		Scheduler:        NewFRFCFSCap(g.Channels),
		Policy:           RNGOblivious,
		Fill:             FillNone,
		LowUtilThreshold: 0,
		NumCores:         nCores,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.Mech.Validate(); err != nil {
		return err
	}
	if c.NumCores <= 0 {
		return fmt.Errorf("memctrl: NumCores must be positive")
	}
	if c.Priorities != nil && len(c.Priorities) < c.NumCores {
		return fmt.Errorf("memctrl: Priorities covers %d cores, NumCores is %d", len(c.Priorities), c.NumCores)
	}
	if c.Fill != FillNone && c.Buffer == nil {
		return fmt.Errorf("memctrl: fill policy %d requires a buffer", c.Fill)
	}
	return nil
}

// Stats aggregates controller-level counters for one simulation.
type Stats struct {
	ReadsServed  int64
	WritesServed int64
	RNGServed    int64
	// RNGFromBuffer counts RNG requests served out of the buffer; the
	// buffer serve rate is RNGFromBuffer / RNGServed (Figure 10).
	RNGFromBuffer int64
	// RNGRounds counts TRNG generation rounds across channels.
	RNGRounds int64
	// ModeSwitches counts Regular->RNG transitions across channels.
	ModeSwitches int64
	// TicksRNGMode counts channel-ticks spent in RNG mode (enter,
	// rounds, exit) across channels.
	TicksRNGMode int64
	// ReadLatencySum accumulates (Finish - Arrive) over served reads.
	ReadLatencySum int64
	// RNGLatencySum accumulates (Finish - Arrive) over served RNG
	// requests.
	RNGLatencySum int64
	// Idle-period predictor confusion matrix (pure idle periods only).
	PredTP, PredFP, PredTN, PredFN int64
	// IdlePeriods counts ended idle periods; LongIdlePeriods those at
	// or above PeriodThreshold.
	IdlePeriods     int64
	LongIdlePeriods int64
	// StarvationOverrides counts scheduler decisions forced by the
	// stall-limit rule.
	StarvationOverrides int64
}

// Add accumulates o's counters into s: a sharded system (multiple
// independent controllers behind one front end) sums its per-shard
// stats into one fleet view, and every field is a plain count so the
// sum is exact.
func (s *Stats) Add(o Stats) {
	s.ReadsServed += o.ReadsServed
	s.WritesServed += o.WritesServed
	s.RNGServed += o.RNGServed
	s.RNGFromBuffer += o.RNGFromBuffer
	s.RNGRounds += o.RNGRounds
	s.ModeSwitches += o.ModeSwitches
	s.TicksRNGMode += o.TicksRNGMode
	s.ReadLatencySum += o.ReadLatencySum
	s.RNGLatencySum += o.RNGLatencySum
	s.PredTP += o.PredTP
	s.PredFP += o.PredFP
	s.PredTN += o.PredTN
	s.PredFN += o.PredFN
	s.IdlePeriods += o.IdlePeriods
	s.LongIdlePeriods += o.LongIdlePeriods
	s.StarvationOverrides += o.StarvationOverrides
}

// PredictorAccuracy returns the idleness predictor's accuracy in
// [0, 1], or 0 if it was never exercised.
func (s *Stats) PredictorAccuracy() float64 {
	total := s.PredTP + s.PredFP + s.PredTN + s.PredFN
	if total == 0 {
		return 0
	}
	return float64(s.PredTP+s.PredTN) / float64(total)
}

// BufferServeRate returns the fraction of RNG requests served from the
// buffer.
func (s *Stats) BufferServeRate() float64 {
	if s.RNGServed == 0 {
		return 0
	}
	return float64(s.RNGFromBuffer) / float64(s.RNGServed)
}
