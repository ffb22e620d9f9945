package core

// SimplePredictor is the paper's lightweight DRAM idleness predictor
// (Section 5.1.2): per channel, a table of 2-bit saturating counters
// indexed by the last accessed memory address. A counter value of 2 or
// more predicts the upcoming idle period to be long (at least
// PeriodThreshold cycles); the counter is incremented when a period
// turns out long and decremented otherwise.
type SimplePredictor struct {
	threshold int64
	tables    [][]uint8

	// Consultations counts PredictLong calls (reports/tests).
	Consultations int64
}

// SimplePredictorEntries is the simple predictor's counter count per
// channel (Table 1).
const SimplePredictorEntries = 256

// NewSimplePredictor builds a predictor with the given long-period
// threshold in cycles (paper: 40).
func NewSimplePredictor(channels int, threshold int64) *SimplePredictor {
	if channels <= 0 || threshold <= 0 {
		panic("core: SimplePredictor needs positive channels and threshold")
	}
	t := make([][]uint8, channels)
	for i := range t {
		row := make([]uint8, SimplePredictorEntries)
		for j := range row {
			// Start weakly-short: most idle periods are short (Fig. 5),
			// so the cold-start default should not trigger fills.
			row[j] = 1
		}
		t[i] = row
	}
	return &SimplePredictor{threshold: threshold, tables: t}
}

func (p *SimplePredictor) index(addr uint64) int {
	return int(addr % SimplePredictorEntries)
}

// PredictLong implements memctrl.IdlePredictor.
func (p *SimplePredictor) PredictLong(ch int, lastAddr uint64) bool {
	p.Consultations++
	return p.tables[ch][p.index(lastAddr)] >= 2
}

// OnPeriodEnd implements memctrl.IdlePredictor: train the counter for
// the address that preceded the period.
func (p *SimplePredictor) OnPeriodEnd(ch int, lastAddr uint64, length int64) {
	ctr := &p.tables[ch][p.index(lastAddr)]
	if length >= p.threshold {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
}

// StorageBits returns the predictor's SRAM footprint in bits (area
// model input): entries x 2 bits per channel.
func (p *SimplePredictor) StorageBits() int {
	return len(p.tables) * SimplePredictorEntries * 2
}
