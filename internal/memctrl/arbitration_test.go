package memctrl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"drstrange/internal/trng"
)

// refPlanDemand is the full-scan RNG-aware arbitration planDemand
// exits early from: it sums every queued request's remaining bits,
// counts every round that sum needs, and decides priority by scanning
// the whole RNG queue and every read queue (refPriorityWins). It writes
// the decision into enter and returns the uncapped round count.
// TestPlanDemandMatchesFullScan holds the controller to it tick for
// tick.
func refPlanDemand(c *Controller, enter []bool) int {
	for i := range enter {
		enter[i] = false
	}
	if len(c.rngQ) == 0 {
		c.stallCtr = 0
		return 0
	}
	rngWins := refPriorityWins(c)
	if c.anyReadQueued() {
		if c.deprioRNG != !rngWins {
			c.deprioRNG = !rngWins
			c.stallCtr = 0
		}
		c.stallCtr++
		if c.stallCtr >= StallLimit {
			c.forceOverride = true
			c.stallCtr = 0
			c.stats.StarvationOverrides++
		}
	} else {
		c.stallCtr = 0
	}
	if c.forceOverride {
		rngWins = !rngWins
		c.forceOverride = false
	}
	remaining := 0.0
	for _, r := range c.rngQ {
		remaining += r.BitsRemaining()
	}
	for i := range c.chans {
		if c.chans[i].mode != modeRegular && c.chans[i].ctx == ctxDemand {
			remaining -= c.cfg.Mech.RoundBits
		}
	}
	wanted := 0
	for bits := remaining; bits > 0; bits -= c.cfg.Mech.RoundBits {
		wanted++
	}
	if wanted <= 0 {
		return wanted
	}
	var cands []chanCand
	for i := range c.chans {
		cs := &c.chans[i]
		if cs.mode != modeRegular {
			continue
		}
		eligible := rngWins
		if !eligible && len(cs.readQ) > 0 {
			oldest := cs.readQ[0]
			if c.isRNGApp[oldest.Core] && oldest.Arrive > c.rngQ[0].Arrive {
				eligible = true
			}
		}
		if !eligible && len(cs.readQ) == 0 && len(cs.writeQ) == 0 {
			eligible = true
		}
		if eligible {
			nc := chanCand{i, len(cs.readQ)}
			j := len(cands)
			cands = append(cands, nc)
			for j > 0 && cands[j-1].qlen > nc.qlen {
				cands[j] = cands[j-1]
				j--
			}
			cands[j] = nc
		}
	}
	for i := 0; i < len(cands) && i < wanted; i++ {
		enter[cands[i].ch] = true
	}
	return wanted
}

// refPriorityWins is the full-scan Section 5.2 priority rule.
func refPriorityWins(c *Controller) bool {
	pR := -1 << 30
	for _, r := range c.rngQ {
		if p := c.priorities[r.Core]; p > pR {
			pR = p
		}
	}
	pN := -1 << 30
	seen := false
	for i := range c.chans {
		for _, r := range c.chans[i].readQ {
			if !c.isRNGApp[r.Core] {
				seen = true
				if p := c.priorities[r.Core]; p > pN {
					pN = p
				}
			}
		}
	}
	return !seen || pR >= pN
}

// arbState is the state planDemand mutates besides its enter vector.
type arbState struct {
	stallCtr      int64
	deprioRNG     bool
	forceOverride bool
	overrides     int64
}

func arbOf(c *Controller) arbState {
	return arbState{c.stallCtr, c.deprioRNG, c.forceOverride, c.stats.StarvationOverrides}
}

func (a arbState) restore(c *Controller) {
	c.stallCtr, c.deprioRNG, c.forceOverride, c.stats.StarvationOverrides =
		a.stallCtr, a.deprioRNG, a.forceOverride, a.overrides
}

// arbCoverage counts the situations the comparison must reach to mean
// anything: deep queues, entries decided by the regular-channel cap
// (the sum's early exit), partly filled requests behind the queue head,
// and both outcomes of the priority rule.
type arbCoverage struct {
	deepQueue, capped, partialAway, rngLoses int
}

// tickAgainstReference is Controller.Tick with the arbitration decided
// twice from the same state: by the full-scan reference, then for real.
// It fails the test on any difference in the enter vector or the
// arbitration state, and carries on with the real decision.
func tickAgainstReference(t *testing.T, c *Controller, now int64, ref []bool, cov *arbCoverage) {
	t.Helper()
	c.popCompletions(now)
	c.cfg.Scheduler.Tick(now)

	regular := 0
	for i := range c.chans {
		if c.chans[i].mode == modeRegular {
			regular++
		}
	}
	before := arbOf(c)
	wanted := refPlanDemand(c, ref)
	want := arbOf(c)
	if len(c.rngQ) > 0 && !refPriorityWins(c) {
		cov.rngLoses++
	}
	before.restore(c)
	got := c.planDemand(now)
	if arb := arbOf(c); arb != want || !slices.Equal(got, ref) {
		t.Fatalf("tick %d (rngQ depth %d): planDemand enter=%v state=%+v, full scan enter=%v state=%+v",
			now, len(c.rngQ), got, arb, ref, want)
	}
	if len(c.rngQ) >= 8 {
		cov.deepQueue++
	}
	for _, r := range c.rngQ[min(1, len(c.rngQ)):] {
		if r.bitsFilled > 0 {
			cov.partialAway++
			break
		}
	}
	if slices.Contains(got, true) && wanted >= regular {
		cov.capped++
	}
	for i := range c.chans {
		c.tickChannel(i, now, got[i])
	}
}

// TestPlanDemandMatchesFullScan drives randomized submit/read/tick
// sequences through the controller and checks, after every tick, that
// the early-exit planDemand and rngPriorityWins decide exactly what the
// full scans decide: the same channels enter RNG mode, and the
// starvation counter, pending override and override count agree. It
// covers D-RaNGe (16-bit rounds), QUAC-TRNG (172-bit rounds) and two
// parametric mechanisms, one with non-dyadic round sizes, under
// uniform, non-uniform and negative priorities, with and without a
// buffer. Classed submissions insert ahead of partly filled requests,
// so partial fills sit away from the queue head. A twin controller
// stepped by the real Tick on the same inputs guards the harness.
func TestPlanDemandMatchesFullScan(t *testing.T) {
	mechs := []trng.Mechanism{trng.DRaNGe(), trng.QUACTRNG(), trng.Parametric(1000, 4), trng.Parametric(333, 4)}
	prioSets := [][]int{
		nil,              // uniform: the first queued request settles priority
		{2, 0, 1, 2},     // an RNG core shares the maximum
		{1, 3, 2, 0},     // a non-RNG core holds the maximum alone
		{-1, -3, -2, -1}, // negative priorities
	}
	for _, mech := range mechs {
		for _, prio := range prioSets {
			for _, buffered := range []bool{false, true} {
				name := fmt.Sprintf("%s/prio=%v/buffer=%v", mech.Name, prio, buffered)
				t.Run(name, func(t *testing.T) {
					build := func() *Controller {
						cfg := DefaultConfig(4)
						cfg.Mech = mech
						cfg.Policy = RNGAware
						cfg.Priorities = prio
						if buffered {
							cfg.Buffer = newTestBuffer(4)
							cfg.Fill = FillPredictor
							cfg.Predictor = &fixedPredictor{long: true}
						}
						return mustController(t, cfg)
					}
					c, twin := build(), build()
					cov := runArbitration(t, c, twin, int64(len(name)))
					if cov.deepQueue == 0 || cov.capped == 0 || cov.partialAway == 0 {
						t.Fatalf("sequence never stressed the early exits: %+v", cov)
					}
					if prio != nil && cov.rngLoses == 0 {
						t.Fatalf("non-uniform priorities never made the RNG queue lose: %+v", cov)
					}
				})
			}
		}
	}
}

// runArbitration applies one seeded operation stream to c (ticked
// against the reference) and twin (ticked normally), in phases of
// random intensity so queues fill, drain and refill. Cores 0 and 1
// only read and write; cores 2 and 3 request random numbers (classed
// half the time) and read, so their reads count as RNG-application
// reads. Each phase draws which RNG cores submit, so some phases queue
// only a lower-priority RNG core.
func runArbitration(t *testing.T, c, twin *Controller, seed int64) arbCoverage {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := c.Config().Geom
	ref := make([]bool, g.Channels)
	var cov arbCoverage
	var pRead, pWrite, pRNG float64
	var rngCores []int
	for now := int64(0); now < 12_000; now++ {
		if now%1000 == 0 {
			pRead, pWrite, pRNG = rng.Float64()*0.5, rng.Float64()*0.1, rng.Float64()*0.3
			rngCores = [][]int{{2}, {3}, {2, 3}}[rng.Intn(3)]
		}
		if rng.Float64() < pRead {
			core := rng.Intn(4)
			line := lineFor(g, rng.Intn(g.Channels), rng.Intn(8), rng.Intn(64), rng.Intn(16))
			c.SubmitRead(line, core, now)
			twin.SubmitRead(line, core, now)
		}
		if rng.Float64() < pWrite {
			line := lineFor(g, rng.Intn(g.Channels), rng.Intn(8), rng.Intn(64), rng.Intn(16))
			c.SubmitWrite(line, 0, now)
			twin.SubmitWrite(line, 0, now)
		}
		if rng.Float64() < pRNG {
			core, prio, deadline := rngCores[rng.Intn(len(rngCores))], 0, int64(0)
			if rng.Intn(2) == 0 {
				prio = rng.Intn(3)
				if rng.Intn(2) == 0 {
					deadline = now + 1 + rng.Int63n(4000)
				}
			}
			c.SubmitRNGPri(core, now, prio, deadline)
			twin.SubmitRNGPri(core, now, prio, deadline)
		}
		tickAgainstReference(t, c, now, ref, &cov)
		twin.Tick(now)
		if c.Stats() != twin.Stats() || arbOf(c) != arbOf(twin) {
			t.Fatalf("tick %d: harness diverged from Controller.Tick:\n %+v %+v\n %+v %+v",
				now, c.Stats(), arbOf(c), twin.Stats(), arbOf(twin))
		}
	}
	return cov
}
