package memctrl

import (
	"testing"

	"drstrange/internal/dram"
	"drstrange/internal/prng"
	"drstrange/internal/trng"
)

// testBuffer is a minimal Buffer for controller tests.
type testBuffer struct {
	bits float64
	cap  float64
}

func newTestBuffer(words int) *testBuffer {
	return &testBuffer{cap: float64(words) * 64}
}

func (b *testBuffer) TakeWord() bool {
	if b.bits >= 64 {
		b.bits -= 64
		return true
	}
	return false
}

func (b *testBuffer) AddBits(x float64) {
	b.bits += x
	if b.bits > b.cap {
		b.bits = b.cap
	}
}
func (b *testBuffer) Full() bool { return b.bits >= b.cap }
func (b *testBuffer) Words() int { return int(b.bits / 64) }

// fixedPredictor always answers the same.
type fixedPredictor struct {
	long    bool
	periods []int64
}

func (p *fixedPredictor) PredictLong(int, uint64) bool { return p.long }
func (p *fixedPredictor) OnPeriodEnd(_ int, _ uint64, length int64) {
	p.periods = append(p.periods, length)
}

func step(c *Controller, from, to int64) {
	for now := from; now <= to; now++ {
		c.Tick(now)
	}
}

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func lineFor(g dram.Geometry, ch, bank, row, col int) uint64 {
	return g.LineOf(dram.Addr{Channel: ch, Bank: bank, Row: row, Col: col})
}

func TestReadServiceLatency(t *testing.T) {
	c := mustController(t, DefaultConfig(1))
	g := c.Config().Geom
	req, ok := c.SubmitRead(lineFor(g, 0, 0, 10, 0), 0, 0)
	if !ok {
		t.Fatal("submit failed")
	}
	step(c, 1, 40)
	if !req.Done {
		t.Fatal("read not served in 40 ticks")
	}
	// ACT@1 + tRCD(3) -> RD@4 + CL+BL(4) = data@8.
	if req.Finish != 8 {
		t.Fatalf("finish = %d, want 8", req.Finish)
	}
	if c.Stats().ReadsServed != 1 {
		t.Fatalf("reads served = %d", c.Stats().ReadsServed)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	c := mustController(t, DefaultConfig(1))
	g := c.Config().Geom
	r1, _ := c.SubmitRead(lineFor(g, 0, 0, 10, 0), 0, 0)
	step(c, 1, 20)
	// Row 10 now open: a hit completes in CL+BL once issued.
	hit, _ := c.SubmitRead(lineFor(g, 0, 0, 10, 1), 0, 20)
	step(c, 21, 60)
	hitLat := hit.Finish - hit.Arrive
	// Conflict: different row, same bank.
	conflict, _ := c.SubmitRead(lineFor(g, 0, 0, 99, 0), 0, 60)
	step(c, 61, 120)
	confLat := conflict.Finish - conflict.Arrive
	if !r1.Done || !hit.Done || !conflict.Done {
		t.Fatal("requests unserved")
	}
	if hitLat >= confLat {
		t.Fatalf("row hit latency %d !< conflict latency %d", hitLat, confLat)
	}
}

func TestWritesDrainAndComplete(t *testing.T) {
	c := mustController(t, DefaultConfig(1))
	g := c.Config().Geom
	for i := 0; i < 4; i++ {
		if !c.SubmitWrite(lineFor(g, 0, i, 5, 0), 0, 0) {
			t.Fatal("write submit failed")
		}
	}
	step(c, 1, 100)
	if got := c.Stats().WritesServed; got != 4 {
		t.Fatalf("writes served = %d, want 4", got)
	}
	if c.WriteQueueLen(0) != 0 {
		t.Fatal("write queue not drained")
	}
}

func TestReadsPreferredOverWritesUntilWatermark(t *testing.T) {
	cfg := DefaultConfig(1)
	c := mustController(t, cfg)
	g := cfg.Geom
	// Saturate the write queue past the high watermark plus a read.
	for i := 0; i < writeDrainHigh; i++ {
		c.SubmitWrite(lineFor(g, 0, i%8, 5+i, 0), 0, 0)
	}
	rd, _ := c.SubmitRead(lineFor(g, 0, 0, 1000, 0), 0, 0)
	step(c, 1, 400)
	if !rd.Done {
		t.Fatal("read starved by write drain")
	}
	if c.Stats().WritesServed == 0 {
		t.Fatal("high watermark did not trigger a drain")
	}
}

func TestQueueCapacityBackpressure(t *testing.T) {
	cfg := DefaultConfig(1)
	c := mustController(t, cfg)
	g := cfg.Geom
	for i := 0; i < ReadQueueCap; i++ {
		if _, ok := c.SubmitRead(lineFor(g, 0, 0, 1+i, 0), 0, 0); !ok {
			t.Fatalf("submit %d failed", i+1)
		}
	}
	if _, ok := c.SubmitRead(lineFor(g, 0, 0, 1+ReadQueueCap, 0), 0, 0); ok {
		t.Fatal("submit over capacity succeeded")
	}
}

func TestObliviousRNGServiceStallsAllChannels(t *testing.T) {
	cfg := DefaultConfig(2)
	c := mustController(t, cfg)
	req, ok := c.SubmitRNG(1, 0)
	if !ok {
		t.Fatal("rng submit failed")
	}
	step(c, 1, 5)
	// All four channels should be switching into RNG mode.
	for ch := 0; ch < 4; ch++ {
		if !c.InRNGMode(ch) {
			t.Fatalf("channel %d not in RNG mode under oblivious policy", ch)
		}
	}
	step(c, 6, 40)
	if !req.Done {
		t.Fatal("rng request unserved")
	}
	// Enter(8) + one round(5): four channels x 16 bits >= 64.
	if req.Finish != 14 {
		t.Fatalf("rng finish = %d, want 14", req.Finish)
	}
	if !c.IsRNGApp(1) || c.IsRNGApp(0) {
		t.Fatal("RNG app marking wrong")
	}
	if c.Stats().RNGServed != 1 {
		t.Fatalf("rng served = %d", c.Stats().RNGServed)
	}
}

func TestObliviousRNGDelaysRegularReads(t *testing.T) {
	// Baseline latency without RNG.
	c1 := mustController(t, DefaultConfig(2))
	g := c1.Config().Geom
	line := lineFor(g, 0, 0, 10, 0)
	r1, _ := c1.SubmitRead(line, 0, 0)
	step(c1, 1, 40)
	base := r1.Finish - r1.Arrive

	// Same read submitted while RNG service runs.
	c2 := mustController(t, DefaultConfig(2))
	c2.SubmitRNG(1, 0)
	step(c2, 1, 2)
	r2, _ := c2.SubmitRead(line, 0, 2)
	step(c2, 3, 120)
	if !r2.Done {
		t.Fatal("read unserved")
	}
	delayed := r2.Finish - r2.Arrive
	if delayed <= base {
		t.Fatalf("read during RNG mode (%d) not slower than baseline (%d)", delayed, base)
	}
}

func TestAwareBufferHitServesFast(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Policy = RNGAware
	buf := newTestBuffer(16)
	buf.AddBits(1024)
	cfg.Buffer = buf
	cfg.Fill = FillNone
	c := mustController(t, cfg)
	req, ok := c.SubmitRNG(1, 0)
	if !ok {
		t.Fatal("submit failed")
	}
	if !req.FromBuffer {
		t.Fatal("buffer hit not marked")
	}
	step(c, 1, 5)
	if !req.Done {
		t.Fatal("buffered word not delivered")
	}
	if req.Finish != bufferServeLatency {
		t.Fatalf("finish = %d, want %d", req.Finish, bufferServeLatency)
	}
	st := c.Stats()
	if st.RNGFromBuffer != 1 || st.BufferServeRate() != 1 {
		t.Fatalf("buffer serve accounting wrong: %+v", st)
	}
}

func TestAwareBufferMissGeneratesOnDemand(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Policy = RNGAware
	cfg.Buffer = newTestBuffer(16)
	cfg.Fill = FillNone
	c := mustController(t, cfg)
	req, _ := c.SubmitRNG(1, 0)
	if req.FromBuffer {
		t.Fatal("empty buffer claimed a hit")
	}
	step(c, 1, 40)
	if !req.Done {
		t.Fatal("rng request unserved")
	}
	// Four channels (ceil(64/16)) enter + round: 1+8+5 = 14.
	if req.Finish > 20 {
		t.Fatalf("on-demand latency %d too high", req.Finish)
	}
	// Only as many channels as needed should have switched.
	if got := c.Stats().ModeSwitches; got != 4 {
		t.Fatalf("mode switches = %d, want 4", got)
	}
}

func TestAwareSurplusBitsFillBuffer(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Policy = RNGAware
	buf := newTestBuffer(16)
	cfg.Buffer = buf
	cfg.Fill = FillNone
	c := mustController(t, cfg)
	c.SubmitRNG(1, 0)
	step(c, 1, 40)
	// 2 channels x 32 bits - 64 served = 0 surplus; but rounds can
	// overshoot if both complete simultaneously. Accept any
	// non-negative deposit; the strict check is that no bits vanish:
	// served + buffered <= generated.
	gen := float64(c.Stats().RNGRounds) * 32
	if 64+buf.bits > gen+1e-9 {
		t.Fatalf("bits invented: generated %.0f, served 64, buffered %.0f", gen, buf.bits)
	}
}

func TestIdleFillFillsBuffer(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Policy = RNGAware
	buf := newTestBuffer(16)
	cfg.Buffer = buf
	cfg.Fill = FillPredictor // nil predictor: every period assumed long
	c := mustController(t, cfg)
	step(c, 0, 400)
	if buf.Words() == 0 {
		t.Fatal("idle system never filled the buffer")
	}
	if !buf.Full() {
		t.Fatalf("400 idle ticks filled only %d words", buf.Words())
	}
	if c.Stats().RNGRounds == 0 {
		t.Fatal("no fill rounds counted")
	}
}

func TestIdleFillRespectsShortPrediction(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Policy = RNGAware
	buf := newTestBuffer(16)
	cfg.Buffer = buf
	cfg.Fill = FillPredictor
	cfg.Predictor = &fixedPredictor{long: false}
	c := mustController(t, cfg)
	step(c, 0, 400)
	if buf.Words() != 0 {
		t.Fatal("short-predicted periods were filled anyway")
	}
}

func TestGreedyFillEightBitsPerThreshold(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Policy = RNGAware
	buf := newTestBuffer(16)
	cfg.Buffer = buf
	cfg.Fill = FillGreedy
	c := mustController(t, cfg)
	step(c, 0, 400)
	// 400 idle ticks / 40-cycle threshold = 10 deposits of 8 bits per
	// channel, on 4 channels: ~320 bits.
	if buf.bits < 300 || buf.bits > 340 {
		t.Fatalf("greedy deposited %.0f bits, want ~320", buf.bits)
	}
	if c.Stats().ModeSwitches != 0 {
		t.Fatal("greedy fill must be overhead-free (no mode switches)")
	}
}

func TestFillStopsWhenRequestArrives(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Policy = RNGAware
	buf := newTestBuffer(1024) // huge: never full
	cfg.Buffer = buf
	cfg.Fill = FillPredictor
	c := mustController(t, cfg)
	g := cfg.Geom
	step(c, 0, 30) // channel 0 in fill mode by now
	if !c.InRNGMode(0) {
		t.Fatal("fill mode not entered")
	}
	req, ok := c.SubmitRead(lineFor(g, 0, 0, 10, 0), 0, 30)
	if !ok {
		t.Fatal("submit failed")
	}
	step(c, 31, 120)
	if !req.Done {
		t.Fatal("read starved by fill mode")
	}
	// The read had to wait at most round remainder + exit + service.
	if lat := req.Finish - req.Arrive; lat > 40 {
		t.Fatalf("read latency under fill = %d, want <= 40", lat)
	}
}

func TestIdlePeriodCallbackAndPredictorTraining(t *testing.T) {
	cfg := DefaultConfig(1)
	pred := &fixedPredictor{long: false}
	cfg.Predictor = pred
	c := mustController(t, cfg)
	c.RecordIdlePeriods()
	g := cfg.Geom
	// Idle from tick 0 to 99, then a request to channel 0.
	step(c, 0, 99)
	c.SubmitRead(lineFor(g, 0, 0, 1, 0), 0, 100)
	step(c, 100, 130)
	if len(c.IdlePeriods()) == 0 {
		t.Fatal("no idle period observed")
	}
	if len(pred.periods) == 0 {
		t.Fatal("predictor not trained")
	}
	if pred.periods[0] < 90 {
		t.Fatalf("period length = %d, want ~100", pred.periods[0])
	}
	st := c.Stats()
	// Predictor said short, period was long: a false negative.
	if st.PredFN != 1 {
		t.Fatalf("confusion matrix: %+v, want one FN", st)
	}
	if st.PredictorAccuracy() != 0 {
		t.Fatalf("accuracy = %v, want 0", st.PredictorAccuracy())
	}
}

func TestPredictorAccuracyTruePositive(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Policy = RNGAware
	cfg.Buffer = newTestBuffer(16)
	cfg.Fill = FillPredictor
	pred := &fixedPredictor{long: true}
	cfg.Predictor = pred
	c := mustController(t, cfg)
	g := cfg.Geom
	step(c, 0, 99)
	c.SubmitRead(lineFor(g, 0, 0, 1, 0), 0, 100)
	step(c, 100, 130)
	if c.Stats().PredTP != 1 {
		t.Fatalf("want one TP, got %+v", c.Stats())
	}
}

func TestRefreshHappens(t *testing.T) {
	cfg := DefaultConfig(1)
	c := mustController(t, cfg)
	step(c, 0, cfg.Timing.REFI+cfg.Timing.RFC+10)
	_, _, _, _, refs := c.Device().TotalCommandCounts()
	if refs < int64(cfg.Geom.Channels) {
		t.Fatalf("refreshes = %d, want >= %d", refs, cfg.Geom.Channels)
	}
}

func TestBLISSBlacklistsStreakyApp(t *testing.T) {
	g := dram.DefaultGeometry()
	cfg := DefaultConfig(2)
	bliss := NewBLISS(2)
	cfg.Scheduler = bliss
	c := mustController(t, cfg)
	// Core 0 floods channel 0 with row hits; core 1 sends one request.
	for i := 0; i < 8; i++ {
		c.SubmitRead(lineFor(g, 0, 0, 10, i), 0, 0)
	}
	step(c, 1, 60)
	if !bliss.blacklisted[0] {
		t.Fatal("streaky app not blacklisted")
	}
	if bliss.blacklisted[1] {
		t.Fatal("quiet app blacklisted")
	}
}

func TestBLISSClearingInterval(t *testing.T) {
	g := dram.DefaultGeometry()
	cfg := DefaultConfig(2)
	bliss := NewBLISS(2)
	cfg.Scheduler = bliss
	c := mustController(t, cfg)
	for i := 0; i < 8; i++ {
		c.SubmitRead(lineFor(g, 0, 0, 10, i), 0, 0)
	}
	step(c, 1, 60)
	if !bliss.blacklisted[0] {
		t.Fatal("not blacklisted")
	}
	step(c, 61, blissClearInterval-1)
	if !bliss.blacklisted[0] {
		t.Fatal("blacklist cleared before the interval")
	}
	step(c, blissClearInterval, blissClearInterval+120)
	if bliss.blacklisted[0] {
		t.Fatal("blacklist not cleared after interval")
	}
}

func TestFRFCFSCapBreaksHitStreak(t *testing.T) {
	g := dram.DefaultGeometry()
	cfg := DefaultConfig(2)
	c := mustController(t, cfg)
	// Core 0: more hits to row 10 than the cap lets through in a row.
	// Core 1: one request to another bank, whose activate FR-FCFS would
	// hold back behind every hit. (A victim in the hits' own bank waits
	// for them all even under the cap: each capped hit re-arms the
	// read-to-precharge delay its precharge needs.)
	hits := make([]*Request, columnCap+8)
	for i := range hits {
		hits[i], _ = c.SubmitRead(lineFor(g, 0, 0, 10, i), 0, 0)
	}
	victim, _ := c.SubmitRead(lineFor(g, 0, 1, 99, 0), 1, 0)
	step(c, 1, 200)
	if !victim.Done {
		t.Fatal("victim never served")
	}
	// With the cap the victim must be served before all the hits
	// finish, as it would not be under pure FR-FCFS.
	if last := hits[len(hits)-1]; victim.Finish > last.Finish {
		t.Fatalf("victim finish = %d after the last hit's %d; cap did not bound the streak", victim.Finish, last.Finish)
	}
}

func TestAwareEqualPrioritiesFavorRNG(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Policy = RNGAware
	c := mustController(t, cfg)
	g := cfg.Geom
	// Busy regular traffic from a non-RNG app on all channels.
	for ch := 0; ch < 4; ch++ {
		for i := 0; i < 4; i++ {
			c.SubmitRead(lineFor(g, ch, i, 10, 0), 0, 0)
		}
	}
	rng, _ := c.SubmitRNG(1, 0)
	step(c, 1, 80)
	if !rng.Done {
		t.Fatal("rng unserved")
	}
	// Equal priorities: RNG wins (Section 5.2), so service begins
	// immediately rather than after the read queues drain.
	if rng.Finish > 25 {
		t.Fatalf("rng finish = %d; equal-priority rule not applied", rng.Finish)
	}
}

func TestAwareNonRNGPrioritizedDelaysRNG(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Policy = RNGAware
	cfg.Priorities = []int{5, 1} // core 0 (non-RNG) outranks core 1
	c := mustController(t, cfg)
	g := cfg.Geom
	for ch := 0; ch < 4; ch++ {
		for i := 0; i < 6; i++ {
			c.SubmitRead(lineFor(g, ch, i, 10, i), 0, 0)
		}
	}
	rng, _ := c.SubmitRNG(1, 0)
	step(c, 1, 300)
	if !rng.Done {
		t.Fatal("rng unserved")
	}
	// The RNG request must wait for the high-priority reads.
	if rng.Finish < 20 {
		t.Fatalf("rng finish = %d; priority rule ignored", rng.Finish)
	}
}

func TestRNGPrioritizedOverNonRNG(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Policy = RNGAware
	cfg.Priorities = []int{1, 5} // RNG app (core 1) outranks
	c := mustController(t, cfg)
	g := cfg.Geom
	for ch := 0; ch < 4; ch++ {
		for i := 0; i < 6; i++ {
			c.SubmitRead(lineFor(g, ch, i, 10, i), 0, 0)
		}
	}
	rng, _ := c.SubmitRNG(1, 0)
	step(c, 1, 300)
	if rng.Finish > 25 {
		t.Fatalf("high-priority rng finish = %d, want immediate service", rng.Finish)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Fill = FillPredictor
	if _, err := NewController(cfg); err == nil {
		t.Fatal("fill without buffer accepted")
	}
	cfg = DefaultConfig(0)
	if _, err := NewController(cfg); err == nil {
		t.Fatal("zero cores accepted")
	}
	// A priority table shorter than the core count used to pass and then
	// panic mid-tick, once a core past its end queued an RNG request.
	cfg = DefaultConfig(4)
	cfg.Policy = RNGAware
	cfg.Priorities = []int{1}
	if _, err := NewController(cfg); err == nil {
		t.Fatal("priorities shorter than NumCores accepted")
	}
	cfg.Priorities = []int{1, 0, 0, 0}
	c := mustController(t, cfg)
	c.SubmitRNG(3, 0)
	step(c, 0, 10)
}

func TestKindString(t *testing.T) {
	if KindRead.String() != "read" || KindWrite.String() != "write" || KindRNG.String() != "rng" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind unnamed")
	}
}

func TestMechanismThroughputScalesService(t *testing.T) {
	// QUAC (higher throughput, higher latency) vs D-RaNGe: under
	// sustained demand, QUAC must finish a large request stream sooner
	// despite its higher single-request latency.
	run := func(mech trng.Mechanism) int64 {
		cfg := DefaultConfig(2)
		cfg.Mech = mech
		c := mustController(t, cfg)
		const total = 320
		var reqs []*Request
		submitted := 0
		for now := int64(0); now < 50000; now++ {
			c.Tick(now)
			for submitted < total {
				r, ok := c.SubmitRNG(1, now)
				if !ok {
					break
				}
				reqs = append(reqs, r)
				submitted++
			}
			if submitted == total && reqs[total-1].Done {
				return reqs[total-1].Finish
			}
		}
		t.Fatal("stream unserved in 50000 ticks")
		return 0
	}
	dr := run(trng.DRaNGe())
	quac := run(trng.QUACTRNG())
	if quac >= dr {
		t.Fatalf("320-request stream: QUAC %d !< D-RaNGe %d", quac, dr)
	}

	// Single request: D-RaNGe must win on latency.
	one := func(mech trng.Mechanism) int64 {
		cfg := DefaultConfig(2)
		cfg.Mech = mech
		c := mustController(t, cfg)
		r, _ := c.SubmitRNG(1, 0)
		step(c, 1, 2000)
		return r.Finish
	}
	if one(trng.DRaNGe()) >= one(trng.QUACTRNG()) {
		t.Fatal("single-request latency: D-RaNGe should beat QUAC")
	}
}

// The freelist must recycle retired requests: a recycled handle comes
// back zeroed from the next submission instead of a fresh allocation.
func TestRequestFreelistRecycling(t *testing.T) {
	c := mustController(t, DefaultConfig(1))
	g := c.Config().Geom
	req, ok := c.SubmitRead(lineFor(g, 0, 0, 10, 0), 0, 0)
	if !ok {
		t.Fatal("submit failed")
	}
	step(c, 0, 100)
	if !req.Done {
		t.Fatal("read not served in 100 ticks")
	}
	finish := req.Finish
	c.Recycle(req)
	req2, ok := c.SubmitRead(lineFor(g, 0, 1, 20, 0), 0, 101)
	if !ok {
		t.Fatal("second submit failed")
	}
	if req2 != req {
		t.Fatal("freelist did not recycle the retired request")
	}
	if req2.Done || req2.Finish == finish || req2.Arrive != 101 {
		t.Fatalf("recycled request not reset: %+v", req2)
	}
}

// compactFIFO must bound the dead prefix of a completion FIFO even when
// the tail stays pending — the mid-stream case that head-only
// compaction misses, letting a long run grow the slice without bound.
func TestCompactFIFOBoundsMidStream(t *testing.T) {
	mk := func(n int) []*Request {
		q := make([]*Request, n)
		for i := range q {
			q[i] = &Request{}
		}
		return q
	}

	// Fully drained past the threshold: reset in place.
	q, head := compactFIFO(mk(100), 100)
	if len(q) != 0 || head != 0 || cap(q) != 100 {
		t.Fatalf("drained: len=%d head=%d cap=%d", len(q), head, cap(q))
	}

	// Dominant dead prefix with a live tail: tail shifts to the front.
	orig := mk(100)
	live := append([]*Request(nil), orig[90:]...)
	q, head = compactFIFO(orig, 90)
	if head != 0 || len(q) != 10 {
		t.Fatalf("mid-stream: len=%d head=%d", len(q), head)
	}
	for i, r := range q {
		if r != live[i] {
			t.Fatalf("live tail reordered at %d", i)
		}
	}

	// Small dead prefix: not worth compacting yet.
	q, head = compactFIFO(mk(100), 30)
	if head != 30 || len(q) != 100 {
		t.Fatalf("small prefix: len=%d head=%d", len(q), head)
	}
}

// A long stream with permanently pending tail requests must not grow
// the completion FIFO without bound (the regression the mid-stream
// compaction fixes).
func TestCompletionFIFOBoundedWithPendingTail(t *testing.T) {
	q := make([]*Request, 0, 8)
	head := 0
	maxCap := 0
	live := &Request{} // never completes; always sits at the tail
	for i := 0; i < 10000; i++ {
		q = append(q, &Request{}) // completes immediately
		q = append(q, live)
		// Pop the completed head(s), as popCompletions would.
		for head < len(q) && q[head] != live {
			q[head] = nil
			head++
		}
		q, head = compactFIFO(q, head)
		if cap(q) > maxCap {
			maxCap = cap(q)
		}
		// The live request stays; drop and re-add it each round to
		// model one pending tail entry.
		if head < len(q) && q[head] == live {
			q[head] = nil
			head++
			q, head = compactFIFO(q, head)
		}
	}
	if maxCap > 1024 {
		t.Fatalf("completion FIFO grew to cap %d despite compaction", maxCap)
	}
}

// TestSubmitRNGPriOrdering pins the RNG queue's deadline-aware
// priority order: higher Prio first, earlier Deadline within a
// priority (no deadline sorts last), and FIFO among full ties — so an
// all-zero submission stream keeps the exact historical queue order.
func TestSubmitRNGPriOrdering(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Policy = RNGAware
	cfg.Buffer = newTestBuffer(16) // empty: every submission queues
	cfg.Fill = FillNone
	c := mustController(t, cfg)

	submit := func(core, prio int, deadline int64) {
		t.Helper()
		if _, ok := c.SubmitRNGPri(core, 0, prio, deadline); !ok {
			t.Fatalf("core %d: submit failed", core)
		}
	}
	submit(0, 0, 0)   // plain FIFO
	submit(1, 0, 0)   // plain FIFO, after 0
	submit(2, 2, 100) // top priority: jumps both
	submit(3, 2, 50)  // same priority, earlier deadline: ahead of 2
	submit(4, 2, 100) // full tie with 2: FIFO after it
	submit(5, 1, 10)  // mid priority: behind the 2s, ahead of the 0s
	submit(6, 0, 5)   // deadline beats the no-deadline zeros

	want := []int{3, 2, 4, 5, 6, 0, 1}
	if len(c.rngQ) != len(want) {
		t.Fatalf("queue length %d, want %d", len(c.rngQ), len(want))
	}
	for i, core := range want {
		if c.rngQ[i].Core != core {
			got := make([]int, len(c.rngQ))
			for j, r := range c.rngQ {
				got[j] = r.Core
			}
			t.Fatalf("queue order %v, want %v", got, want)
		}
	}

	// The capacity check is shared with the plain path: the queue still
	// refuses past RNGQueueCap regardless of priority.
	for i := len(want); i < RNGQueueCap; i++ {
		submit(7, 2, 1)
	}
	if _, ok := c.SubmitRNGPri(7, 0, 2, 1); ok {
		t.Fatal("submission accepted past RNGQueueCap")
	}
}

// BenchmarkControllerTick times one executed controller tick in the two
// states the serving workloads alternate between: regular (reads queued
// on every channel, no RNG demand) and rng (a full RNG queue holding
// every channel in RNG demand mode). Each tick submits one request and
// recycles the served ones, so the steady state allocates nothing; a
// warm-up fills the queues before the timer starts.
func BenchmarkControllerTick(b *testing.B) {
	b.Run("regular", func(b *testing.B) {
		c, err := NewController(DefaultConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		rng := prng.NewSplitMix64(1)
		benchControllerTicks(b, c, func(now int64) (*Request, bool) {
			return c.SubmitRead(rng.Next()%(1<<16), 0, now)
		}, false)
	})
	b.Run("rng", func(b *testing.B) {
		cfg := DefaultConfig(1)
		cfg.Policy = RNGAware
		c, err := NewController(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchControllerTicks(b, c, func(now int64) (*Request, bool) {
			return c.SubmitRNG(0, now)
		}, true)
	})
}

// benchControllerTicks ticks c b.N times after a warm-up, submitting one
// request per tick and recycling served requests once every earlier one
// has been recycled. It fails the benchmark unless, after the warm-up,
// every channel is in RNG mode (wantRNG) or in regular mode with reads
// queued.
func benchControllerTicks(b *testing.B, c *Controller, submit func(now int64) (*Request, bool), wantRNG bool) {
	const warmup = 2000
	var ring [256]*Request
	head, n := 0, 0
	tick := func(now int64) {
		c.Tick(now)
		for n > 0 && ring[head].Done {
			c.Recycle(ring[head])
			ring[head] = nil
			head = (head + 1) % len(ring)
			n--
		}
		if n < len(ring) {
			if r, ok := submit(now); ok {
				ring[(head+n)%len(ring)] = r
				n++
			}
		}
	}
	now := int64(0)
	for ; now < warmup; now++ {
		tick(now)
	}
	for ch := range c.chans {
		if c.InRNGMode(ch) != wantRNG || (!wantRNG && len(c.chans[ch].readQ) == 0) {
			b.Fatalf("after warm-up: channel %d in RNG mode = %v with %d reads queued",
				ch, c.InRNGMode(ch), len(c.chans[ch].readQ))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for end := now + int64(b.N); now < end; now++ {
		tick(now)
	}
}
