package core

import (
	"math"
	"testing"
	"testing/quick"

	"drstrange/internal/memctrl"
)

// Compile-time interface compliance with the controller's extension
// points.
var (
	_ memctrl.Buffer        = (*RandBuffer)(nil)
	_ memctrl.IdlePredictor = (*SimplePredictor)(nil)
	_ memctrl.IdlePredictor = (*QPredictor)(nil)
)

func TestRandBufferServeAndCap(t *testing.T) {
	b := NewRandBuffer(2) // 128 bits
	if b.TakeWord() {
		t.Fatal("empty buffer served a word")
	}
	b.AddBits(63)
	if b.TakeWord() {
		t.Fatal("63 bits served as a word")
	}
	b.AddBits(1)
	if !b.TakeWord() {
		t.Fatal("64 bits did not serve a word")
	}
	if b.TakeWord() {
		t.Fatal("double-served")
	}
	b.AddBits(1000)
	if !b.Full() {
		t.Fatal("overfilled buffer not full")
	}
	if b.Words() != 2 {
		t.Fatalf("words = %d, want 2", b.Words())
	}
	if b.BitsDiscarded == 0 {
		t.Fatal("overflow not recorded as discarded")
	}
}

func TestRandBufferNegativeAddIgnored(t *testing.T) {
	b := NewRandBuffer(1)
	b.AddBits(-5)
	if b.bits != 0 {
		t.Fatal("negative deposit changed buffer")
	}
}

func TestRandBufferPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRandBuffer(0)
}

func TestRandBufferInvariantQuick(t *testing.T) {
	b := NewRandBuffer(16)
	f := func(ops []uint8) bool {
		for _, op := range ops {
			if op%3 == 0 {
				b.TakeWord()
			} else {
				b.AddBits(float64(op % 100))
			}
			if b.bits < 0 || b.bits > 16*64 {
				return false
			}
			if b.Words() < 0 || b.Words() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimplePredictorLearnsLongPeriods(t *testing.T) {
	p := NewSimplePredictor(4, 40)
	const addr = 0xABC
	// Cold start: weakly short.
	if p.PredictLong(0, addr) {
		t.Fatal("cold predictor predicted long")
	}
	// Train long twice: counter 1 -> 3.
	p.OnPeriodEnd(0, addr, 100)
	if !p.PredictLong(0, addr) {
		t.Fatal("one long period should flip the weak counter to long")
	}
	p.OnPeriodEnd(0, addr, 100)
	if c := p.tables[0][p.index(addr)]; c != 3 {
		t.Fatalf("counter = %d, want saturated 3", c)
	}
	p.OnPeriodEnd(0, addr, 100)
	if c := p.tables[0][p.index(addr)]; c != 3 {
		t.Fatal("counter exceeded saturation")
	}
	// Short periods walk it back down.
	p.OnPeriodEnd(0, addr, 10)
	p.OnPeriodEnd(0, addr, 10)
	if p.PredictLong(0, addr) {
		t.Fatal("predictor still long after repeated short periods")
	}
	p.OnPeriodEnd(0, addr, 10)
	p.OnPeriodEnd(0, addr, 10)
	if c := p.tables[0][p.index(addr)]; c != 0 {
		t.Fatalf("counter = %d, want floor 0", c)
	}
}

func TestSimplePredictorThresholdBoundary(t *testing.T) {
	p := NewSimplePredictor(1, 40)
	p.OnPeriodEnd(0, 1, 40) // exactly threshold counts as long
	if !p.PredictLong(0, 1) {
		t.Fatal("length == threshold should train long")
	}
	p2 := NewSimplePredictor(1, 40)
	p2.OnPeriodEnd(0, 1, 39)
	if p2.PredictLong(0, 1) {
		t.Fatal("length just below threshold trained long")
	}
}

func TestSimplePredictorPerChannelIsolation(t *testing.T) {
	p := NewSimplePredictor(2, 40)
	p.OnPeriodEnd(0, 5, 100)
	p.OnPeriodEnd(0, 5, 100)
	if !p.PredictLong(0, 5) {
		t.Fatal("channel 0 not trained")
	}
	if p.PredictLong(1, 5) {
		t.Fatal("training leaked across channels")
	}
}

func TestSimplePredictorAliasing(t *testing.T) {
	p := NewSimplePredictor(1, 40)
	// Addresses 256 apart share a counter (256-entry table).
	p.OnPeriodEnd(0, 7, 100)
	p.OnPeriodEnd(0, 7+256, 100)
	if c := p.tables[0][p.index(7)]; c != 3 {
		t.Fatalf("aliased training: counter = %d, want 3", c)
	}
}

func TestSimplePredictorStorage(t *testing.T) {
	p := NewSimplePredictor(4, 40)
	// Table 1: 256 entries x 2 bits per channel = 0.0625 KB per
	// channel.
	if p.StorageBits() != 4*256*2 {
		t.Fatalf("storage = %d bits", p.StorageBits())
	}
}

func TestSimplePredictorPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSimplePredictor(0, 40)
}

func TestQPredictorLearnsAlternatingOutcome(t *testing.T) {
	p := NewQPredictor(1, 40)
	const addr = 0x123
	// Always-short address: the agent should learn to wait.
	for i := 0; i < 200; i++ {
		p.PredictLong(0, addr)
		p.OnPeriodEnd(0, addr, 5)
	}
	if p.PredictLong(0, addr) {
		t.Fatal("agent did not learn to wait on always-short periods")
	}
}

func TestQPredictorLearnsLong(t *testing.T) {
	p := NewQPredictor(1, 40)
	const addr = 0x77
	for i := 0; i < 200; i++ {
		p.PredictLong(0, addr)
		p.OnPeriodEnd(0, addr, 500)
	}
	if !p.PredictLong(0, addr) {
		t.Fatal("agent did not learn to generate on always-long periods")
	}
}

func TestQPredictorHistoryChangesState(t *testing.T) {
	p := NewQPredictor(1, 40)
	s1 := p.state(0, 0x3FF)
	p.OnPeriodEnd(0, 0x3FF, 500) // history gains a 1
	s2 := p.state(0, 0x3FF)
	if s1 == s2 {
		t.Fatal("idle-history bit did not alter the state")
	}
}

func TestQPredictorUpdateMatchesFormula(t *testing.T) {
	p := NewQPredictor(1, 40)
	const addr = 0x5
	// Cold states wait (conservative initialization).
	if p.PredictLong(0, addr) {
		t.Fatal("cold agent predicted long")
	}
	s := p.lastState[0]
	p.OnPeriodEnd(0, addr, 500) // waiting in a long period: reward -1
	// Q(wait) = (1-0.05)*0.01 + 0.05*(-1) = -0.0405
	if got := p.q[s][actionWait]; math.Abs(got-(-0.0405)) > 1e-12 {
		t.Fatalf("Q = %v, want -0.0405", got)
	}
	// The state now prefers generating.
	if !p.PredictLong(0, addr^1024) && p.state(0, addr^1024) == s {
		t.Fatal("state did not flip to generate after punished wait")
	}
}

func TestQPredictorStorageIs8KB(t *testing.T) {
	p := NewQPredictor(4, 40)
	if p.StorageBits() != 8*1024*8 {
		t.Fatalf("storage = %d bits, want 65536 (8 KB)", p.StorageBits())
	}
}

type fixedRequester struct {
	word    uint64
	latency int64
	calls   int
}

func (f *fixedRequester) RequestWord() (uint64, int64) {
	f.calls++
	return f.word, f.latency
}

func TestSyscallGetRandom(t *testing.T) {
	r := &fixedRequester{word: 0x0123456789ABCDEF, latency: 20}
	s := NewSyscall(r)
	buf := make([]byte, 20) // 2.5 words -> 3 requests
	n, lat := s.GetRandom(buf)
	if n != 20 {
		t.Fatalf("n = %d", n)
	}
	if r.calls != 3 {
		t.Fatalf("requests = %d, want 3", r.calls)
	}
	if lat != 60 {
		t.Fatalf("latency = %d, want 60", lat)
	}
	if buf[0] != 0xEF || buf[1] != 0xCD {
		t.Fatalf("little-endian fill wrong: % x", buf[:2])
	}
	if s.AverageLatency() != 20 {
		t.Fatalf("avg latency = %v", s.AverageLatency())
	}
	if s.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestSyscallUint64(t *testing.T) {
	s := NewSyscall(&fixedRequester{word: 7, latency: 2})
	w, l := s.Uint64()
	if w != 7 || l != 2 {
		t.Fatalf("got %d, %d", w, l)
	}
}

func TestSyscallPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSyscall(nil)
}

func TestAreaEstimateSimpleDesign(t *testing.T) {
	// Paper Section 8.9: 16-entry buffer + 32-entry RNG queue + simple
	// predictor (4 channels x 256 x 2 bits) = 0.0022 mm^2 at 22 nm.
	p := NewSimplePredictor(4, 40)
	e := EstimateArea(16, 32, p.StorageBits())
	if e.TotalMM2 < 0.0008 || e.TotalMM2 > 0.005 {
		t.Fatalf("simple design area = %v mm^2, want ~0.0022", e.TotalMM2)
	}
	if e.TotalMM2 != e.BufferMM2+e.RNGQueueMM2+e.PredictorMM2+e.ControlMM2 {
		t.Fatal("total != sum of parts")
	}
}

func TestAreaEstimateRLDesign(t *testing.T) {
	// With the RL agent the paper reports 0.012 mm^2.
	q := NewQPredictor(4, 40)
	e := EstimateArea(16, 32, q.StorageBits())
	if e.TotalMM2 < 0.005 || e.TotalMM2 > 0.03 {
		t.Fatalf("RL design area = %v mm^2, want ~0.012", e.TotalMM2)
	}
	simple := EstimateArea(16, 32, NewSimplePredictor(4, 40).StorageBits())
	if e.TotalMM2 <= simple.TotalMM2 {
		t.Fatal("RL design should cost more area than the simple design")
	}
	if e.FractionOfCascadeLakeCore() <= 0 {
		t.Fatal("core fraction not positive")
	}
}

func TestSramAreaMonotonic(t *testing.T) {
	prev := 0.0
	for _, bits := range []int{64, 512, 1024, 8192, 65536} {
		a := sramAreaMM2(bits)
		if a <= prev {
			t.Fatalf("area not monotonic at %d bits", bits)
		}
		prev = a
	}
	if sramAreaMM2(0) != 0 {
		t.Fatal("zero bits should cost zero area")
	}
}
