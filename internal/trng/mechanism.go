// Package trng models DRAM-based true random number generator
// mechanisms: their command-level timing footprint on a memory channel
// (what the memory controller needs) and their entropy extraction
// pipeline (what the application interface needs).
//
// The DR-STRaNGe paper evaluates two state-of-the-art mechanisms,
// D-RaNGe (HPCA 2019) and QUAC-TRNG (ISCA 2021), plus a parametric
// family used for its Figure 2 throughput sweep. All three are modeled
// here at "round" granularity: while a channel is in RNG mode it
// executes back-to-back rounds; each round occupies the channel for
// RoundLatency memory cycles and yields RoundBits random bits. Entering
// and leaving RNG mode costs EnterLatency/ExitLatency cycles (quiescing
// the channel, precharging all banks, and reprogramming timing
// parameters so that regular data is never exposed to violated
// timings).
//
// Calibration: one memory cycle is 5 ns.
//   - D-RaNGe: 16 bits per 5-cycle round per channel = 640 Mb/s per
//     channel (the paper quotes ~563 Mb/s per channel for a
//     state-of-the-art configuration), 2.56 Gb/s on the 4-channel
//     system; a buffer-empty 64-bit request served by all four
//     channels in parallel costs Enter+Round+Exit = 11 cycles (one
//     reduced-tRCD read sweep of all 32 banks plus the timing-register
//     reprogramming on either side).
//   - QUAC-TRNG: 172 bits per 40-cycle round per channel = 3.44 Gb/s
//     aggregate on four channels (the paper's quoted throughput), with
//     a ~4x higher 64-bit latency than D-RaNGe (ACT-PRE-ACT over an
//     8 KB segment plus SHA-256 conditioning) — the paper's key
//     contrast: higher throughput, higher latency.
//   - Parametric(T): D-RaNGe's latency profile with RoundBits scaled so
//     the aggregate streaming throughput equals T Mb/s (Figure 2's
//     footnote 1 prescribes exactly this). The resulting on-demand
//     64-bit latency saturates at 3.2 Gb/s, reproducing Figure 2's
//     saturation knee.
package trng

import "fmt"

// MemCyclesPerSecond is the simulator clock rate: one memory cycle is
// 5 ns, i.e. 200e6 cycles per second.
const MemCyclesPerSecond = 200e6

// Mechanism is the timing/throughput profile of a DRAM TRNG as seen by
// the memory controller.
type Mechanism struct {
	// Name identifies the mechanism in reports ("D-RaNGe", "QUAC-TRNG",
	// "Parametric-<Mb/s>").
	Name string
	// RoundLatency is how many memory cycles one generation round
	// occupies a channel.
	RoundLatency int64
	// RoundBits is how many random bits one round yields on one
	// channel. It is fractional so the parametric sweep can hit exact
	// throughput targets; the controller carries the remainder.
	RoundBits float64
	// EnterLatency is the cost of switching a channel into RNG mode.
	EnterLatency int64
	// ExitLatency is the cost of switching a channel back to regular
	// operation.
	ExitLatency int64
}

// DRaNGe returns the D-RaNGe mechanism model (Kim et al., HPCA 2019):
// reduced-tRCD reads to reserved rows, low latency, moderate
// throughput.
func DRaNGe() Mechanism {
	return Mechanism{
		Name:         "D-RaNGe",
		RoundLatency: 5,
		RoundBits:    16,
		EnterLatency: 8,
		ExitLatency:  8,
	}
}

// QUACTRNG returns the QUAC-TRNG mechanism model (Olgun et al., ISCA
// 2021): quadruple row activation over 8 KB segments followed by
// SHA-256 conditioning — about 6.7x the aggregate throughput of
// D-RaNGe at 4.5x its 64-bit latency.
func QUACTRNG() Mechanism {
	return Mechanism{
		Name:         "QUAC-TRNG",
		RoundLatency: 40,
		RoundBits:    172,
		EnterLatency: 8,
		ExitLatency:  8,
	}
}

// ByName resolves the flag-friendly mechanism names the cmd/ drivers
// accept (see MechanismNames).
func ByName(name string) (Mechanism, bool) {
	switch name {
	case "drange":
		return DRaNGe(), true
	case "quac":
		return QUACTRNG(), true
	}
	return Mechanism{}, false
}

// MechanismNames lists the accepted mechanism names, sorted.
func MechanismNames() []string { return []string{"drange", "quac"} }

// Parametric returns a mechanism with D-RaNGe's latency profile whose
// aggregate streaming throughput across channels channels equals
// totalMbps. This reproduces the paper's Figure 2 sweep (200 Mb/s to
// 6.4 Gb/s), whose footnote fixes latency at D-RaNGe's values so that
// only throughput varies.
func Parametric(totalMbps float64, channels int) Mechanism {
	if totalMbps <= 0 || channels <= 0 {
		panic(fmt.Sprintf("trng: Parametric needs positive throughput and channels, got %v, %d", totalMbps, channels))
	}
	base := DRaNGe()
	// bits per cycle per channel = totalMbps*1e6 / MemCyclesPerSecond / channels
	perCyclePerChannel := totalMbps * 1e6 / MemCyclesPerSecond / float64(channels)
	return Mechanism{
		Name:         fmt.Sprintf("Parametric-%gMbps", totalMbps),
		RoundLatency: base.RoundLatency,
		RoundBits:    perCyclePerChannel * float64(base.RoundLatency),
		EnterLatency: base.EnterLatency,
		ExitLatency:  base.ExitLatency,
	}
}

// StreamMbps returns the mechanism's steady-state throughput in Mb/s
// when nChannels channels stay in RNG mode (round after round, no mode
// switches).
func (m Mechanism) StreamMbps(nChannels int) float64 {
	return m.RoundBits / float64(m.RoundLatency) * float64(nChannels) * MemCyclesPerSecond / 1e6
}

// OnDemand64Latency returns the memory cycles needed to produce one
// 64-bit value starting from regular mode with nChannels channels
// switched in parallel — the latency an RNG application sees when the
// random number buffer is empty.
func (m Mechanism) OnDemand64Latency(nChannels int) int64 {
	rounds := int64(1)
	perRound := m.RoundBits * float64(nChannels)
	if perRound > 0 {
		need := 64.0
		got := perRound
		for got < need {
			rounds++
			got += perRound
		}
	}
	return m.EnterLatency + rounds*m.RoundLatency + m.ExitLatency
}

// Validate reports whether the mechanism is usable.
func (m Mechanism) Validate() error {
	if m.RoundLatency <= 0 || m.RoundBits <= 0 || m.EnterLatency < 0 || m.ExitLatency < 0 {
		return fmt.Errorf("trng: invalid mechanism %+v", m)
	}
	return nil
}
