package core

// QPredictor is the paper's reinforcement-learning DRAM idleness
// predictor (Section 5.1.2): a Q-learning agent with two actions
// (generate / wait) whose state is the 10 least significant bits of the
// last accessed address XOR'ed with the history of the last 10 idle
// periods (1 = long, 0 = short). Rewards are +1 for correct decisions
// (generate in a long period, wait in a short one) and -1 for
// mispredictions, applied at period end when the true length is known;
// the update is Q(s,a) = (1-alpha)Q(s,a) + alpha*r with alpha = 0.05
// (the next-state term is omitted because the next state depends on
// future accesses — exactly the paper's formulation).
type QPredictor struct {
	threshold int64

	q [][2]float64 // 1024 states x 2 actions (8 KB at 4-byte Q-values)

	// Per-channel context.
	hist       []uint16 // 10-bit long/short history
	lastState  []int
	lastAction []int
	havePred   []bool
}

// Q-learning actions.
const (
	actionWait     = 0
	actionGenerate = 1
)

const qStates = 1024

// qAlpha is the Q-learning rate.
const qAlpha = 0.05

// NewQPredictor builds the RL agent for channels channels with the
// given long-period threshold (cycles).
func NewQPredictor(channels int, threshold int64) *QPredictor {
	if channels <= 0 || threshold <= 0 {
		panic("core: QPredictor needs positive channels and threshold")
	}
	p := &QPredictor{
		threshold:  threshold,
		q:          make([][2]float64, qStates),
		hist:       make([]uint16, channels),
		lastState:  make([]int, channels),
		lastAction: make([]int, channels),
		havePred:   make([]bool, channels),
	}
	// Conservative initialization: a cold state waits. Most idle
	// periods are short (Figure 5), so exploring generation by default
	// would flood the system with false positives; waiting in a long
	// period earns a negative reward that flips the state to generate
	// within a few observations.
	for s := range p.q {
		p.q[s][actionWait] = 0.01
	}
	return p
}

func (p *QPredictor) state(ch int, addr uint64) int {
	return int((uint16(addr) ^ p.hist[ch]) & (qStates - 1))
}

// PredictLong implements memctrl.IdlePredictor: choose the action with
// the larger Q-value; ties break toward generating, which serves as
// optimistic initialization (the agent explores generation until
// punished).
func (p *QPredictor) PredictLong(ch int, lastAddr uint64) bool {
	s := p.state(ch, lastAddr)
	a := actionGenerate
	if p.q[s][actionWait] > p.q[s][actionGenerate] {
		a = actionWait
	}
	p.lastState[ch] = s
	p.lastAction[ch] = a
	p.havePred[ch] = true
	return a == actionGenerate
}

// OnPeriodEnd implements memctrl.IdlePredictor: reward the recorded
// action and append the period's class to the channel's history.
func (p *QPredictor) OnPeriodEnd(ch int, lastAddr uint64, length int64) {
	long := length >= p.threshold
	if p.havePred[ch] {
		s, a := p.lastState[ch], p.lastAction[ch]
		r := -1.0
		if (a == actionGenerate) == long {
			r = 1.0
		}
		p.q[s][a] = (1-qAlpha)*p.q[s][a] + qAlpha*r
		p.havePred[ch] = false
	}
	p.hist[ch] <<= 1
	if long {
		p.hist[ch] |= 1
	}
	p.hist[ch] &= qStates - 1
}

// StorageBits returns the agent's table footprint in bits: 1024 states
// x 2 actions x 32-bit Q-values = 8 KB, matching the paper's Section
// 8.9 accounting.
func (p *QPredictor) StorageBits() int { return qStates * 2 * 32 }
