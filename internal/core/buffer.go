// Package core implements the components the DR-STRaNGe paper
// contributes (Section 5): the random number buffer, the simple DRAM
// idleness predictor, the reinforcement-learning (Q-learning) idleness
// predictor, the getrandom()-style application interface, and the
// CACTI-style area model for the added hardware (Section 8.9).
//
// The components plug into the memory controller in internal/memctrl
// through the Buffer and IdlePredictor interfaces defined there; the
// RNG-aware scheduling rules themselves live in the controller because
// they arbitrate between its queues.
package core

// RandBuffer is the random number buffer held in the memory controller
// (Table 1: 16 entries of 64 bits). Generated bits accumulate and are
// served in 64-bit words; excess generation is discarded once full
// (the controller stops filling a full buffer, but fractional-round
// surpluses can still hit the cap).
type RandBuffer struct {
	capacityBits float64
	bits         float64

	// Served / discarded statistics for reports.
	WordsServed   int64
	BitsDeposited float64
	BitsDiscarded float64
}

// NewRandBuffer returns a buffer holding words 64-bit entries. It
// panics on non-positive sizes; use a nil memctrl.Buffer for "no
// buffer".
func NewRandBuffer(words int) *RandBuffer {
	if words <= 0 {
		panic("core: RandBuffer needs at least one word of capacity")
	}
	return &RandBuffer{capacityBits: float64(words) * 64}
}

// TakeWord implements memctrl.Buffer: it removes 64 bits if available.
func (b *RandBuffer) TakeWord() bool {
	if b.bits >= 64 {
		b.bits -= 64
		b.WordsServed++
		return true
	}
	return false
}

// AddBits implements memctrl.Buffer: deposit generated bits, capping at
// capacity.
func (b *RandBuffer) AddBits(bits float64) {
	if bits <= 0 {
		return
	}
	b.BitsDeposited += bits
	b.bits += bits
	if b.bits > b.capacityBits {
		b.BitsDiscarded += b.bits - b.capacityBits
		b.bits = b.capacityBits
	}
}

// Full implements memctrl.Buffer.
func (b *RandBuffer) Full() bool { return b.bits >= b.capacityBits }

// Words implements memctrl.Buffer: complete 64-bit words available.
func (b *RandBuffer) Words() int { return int(b.bits / 64) }

// Bits returns the raw buffered bit count (tests).
func (b *RandBuffer) Bits() float64 { return b.bits }
