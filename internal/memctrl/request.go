// Package memctrl implements the simulated memory controller: per-channel
// read/write request queues, the baseline memory request schedulers the
// DR-STRaNGe paper compares against (FR-FCFS with a column cap, and
// BLISS), the controller's two execution modes (Regular and
// RNG), and the hooks the DR-STRaNGe components in internal/core plug
// into (random number buffer, DRAM idleness predictor, RNG-aware queue
// arbitration).
//
// The controller is ticked once per memory cycle by internal/sim. Each
// tick it may issue at most one DRAM command per channel, chosen by the
// configured scheduler, and advances the per-channel RNG-mode state
// machines that model DRAM-based TRNG operation (see internal/trng).
package memctrl

import (
	"fmt"

	"drstrange/internal/dram"
)

// Kind classifies a memory request.
type Kind uint8

// Request kinds.
const (
	KindRead Kind = iota
	KindWrite
	KindRNG
)

// String names the kind for logs and test output.
func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindRNG:
		return "rng"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request is one memory request flowing through the controller. Cores
// keep the pointer and poll Done; the controller sets Done and Finish
// when the request completes.
type Request struct {
	Kind Kind
	// Addr locates the cache line for reads/writes; unused for RNG.
	Addr dram.Addr
	// Line is the cache-line number Addr was decoded from.
	Line uint64
	// Core is the requesting core's index.
	Core int
	// Arrive is the tick the request entered the controller.
	Arrive int64
	// Finish is the tick the request completed (valid once Done).
	Finish int64
	// Done reports completion. Reads/RNG: data available. Writes:
	// posted into the write queue's domain (writes complete at issue).
	Done bool
	// FromBuffer marks RNG requests served out of the random number
	// buffer rather than by generating fresh bits in DRAM.
	FromBuffer bool
	// Prio is the RNG request's class priority (SubmitRNGPri): the RNG
	// queue serves higher priorities first. 0 — every historical
	// submission path — preserves plain FIFO order.
	Prio int
	// Deadline is the RNG request's absolute completion deadline in
	// ticks; 0 means none. Among equal priorities the RNG queue serves
	// earlier deadlines first (none sorts last).
	Deadline int64

	// bitsFilled tracks generation progress of an RNG request.
	bitsFilled float64
}

// BitsRemaining reports how many more random bits an RNG request needs.
func (r *Request) BitsRemaining() float64 {
	rem := 64 - r.bitsFilled
	if rem < 0 {
		return 0
	}
	return rem
}
