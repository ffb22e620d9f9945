package core

// Area model for DR-STRaNGe's added hardware at the 22 nm node,
// standing in for the paper's CACTI 6.0 runs (Section 8.9). The model
// prices SRAM storage as bit-cell area plus a periphery overhead that
// shrinks with array size — small arrays (hundreds of bits) are
// decoder/sense-amp dominated, large arrays approach the cell-area
// limit. Constants are calibrated against published 22 nm SRAM bitcell
// area (~0.092 um^2) and the paper's two reported design points
// (0.0022 mm^2 for the simple design, 0.012 mm^2 with the RL agent).

// AreaEstimate breaks down the area of DR-STRaNGe's structures in mm^2.
type AreaEstimate struct {
	BufferMM2    float64
	RNGQueueMM2  float64
	PredictorMM2 float64
	ControlMM2   float64
	TotalMM2     float64
}

const (
	// sramCellMM2 is the effective 22 nm bit area including local
	// wordline/bitline overhead.
	sramCellMM2 = 1.4e-7
	// peripheryAlpha scales the 1/sqrt(kilobits) periphery term.
	peripheryAlpha = 4.0
	// rngQueueEntryBits is the RNG queue's per-entry payload: core id,
	// priority, arrival timestamp, and progress counter.
	rngQueueEntryBits = 48
	// controlBits covers mode FSMs, idle counters, last-address
	// registers and the starvation counter.
	controlBits = 256
	// cascadeLakeCoreMM2 is the Intel Cascade Lake core area the paper
	// normalizes against (WikiChip).
	cascadeLakeCoreMM2 = 4.6e2 / 28 * 1.0 // ~16.4 mm^2 per core at 14nm; retained for ratio reporting
)

// sramAreaMM2 prices bits of SRAM with size-dependent periphery
// overhead.
func sramAreaMM2(bits int) float64 {
	if bits <= 0 {
		return 0
	}
	kb := float64(bits) / 1024
	if kb < 0.0625 {
		kb = 0.0625 // floor: even tiny register files pay a decoder
	}
	overhead := 1 + peripheryAlpha/sqrtf(kb)
	return float64(bits) * sramCellMM2 * overhead
}

func sqrtf(x float64) float64 {
	// Newton iterations suffice here and avoid importing math for one
	// call site; inputs are small positive reals.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// EstimateArea prices a DR-STRaNGe configuration: a bufferWords-entry
// random number buffer, an rngQueueEntries-entry RNG request queue, and
// either the simple predictor (predictorBits from
// SimplePredictor.StorageBits) or the RL agent's table.
func EstimateArea(bufferWords, rngQueueEntries, predictorBits int) AreaEstimate {
	e := AreaEstimate{
		BufferMM2:    sramAreaMM2(bufferWords * 64),
		RNGQueueMM2:  sramAreaMM2(rngQueueEntries * rngQueueEntryBits),
		PredictorMM2: sramAreaMM2(predictorBits),
		ControlMM2:   sramAreaMM2(controlBits),
	}
	e.TotalMM2 = e.BufferMM2 + e.RNGQueueMM2 + e.PredictorMM2 + e.ControlMM2
	return e
}

// FractionOfCascadeLakeCore reports the estimate as a fraction of one
// Intel Cascade Lake CPU core, the paper's comparison point.
func (e AreaEstimate) FractionOfCascadeLakeCore() float64 {
	return e.TotalMM2 / cascadeLakeCoreMM2
}
