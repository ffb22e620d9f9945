package dram

import (
	"testing"
	"testing/quick"

	"drstrange/internal/prng"
)

func TestDDR3TimingValid(t *testing.T) {
	if err := DDR3_1600().Validate(); err != nil {
		t.Fatalf("default timing invalid: %v", err)
	}
}

func TestTimingValidateRejectsZero(t *testing.T) {
	tm := DDR3_1600()
	tm.RCD = 0
	if err := tm.Validate(); err == nil {
		t.Fatal("zero RCD accepted")
	}
}

func TestTimingValidateRCCoversRASRP(t *testing.T) {
	tm := DDR3_1600()
	tm.RC = tm.RAS + tm.RP - 1
	if err := tm.Validate(); err == nil {
		t.Fatal("RC < RAS+RP accepted")
	}
}

func TestTimingErrorString(t *testing.T) {
	e := &TimingError{Field: "RCD", Value: 0}
	if e.Error() == "" {
		t.Fatal("empty error string")
	}
	e2 := &TimingError{Field: "RC", Value: 1, Reason: "why"}
	if e2.Error() == e.Error() {
		t.Fatal("reasoned error should differ")
	}
}

func TestGeometryRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	lines := []uint64{0, 1, 127, 128, 12345, g.Lines() - 1}
	for _, l := range lines {
		a := g.Map(l)
		if got := g.LineOf(a); got != l {
			t.Fatalf("round trip %d -> %v -> %d", l, a, got)
		}
	}
}

func TestGeometryQuickRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	f := func(l uint64) bool {
		l %= g.Lines()
		a := g.Map(l)
		inRange := a.Channel >= 0 && a.Channel < g.Channels &&
			a.Bank >= 0 && a.Bank < g.Banks &&
			a.Row >= 0 && a.Row < g.Rows &&
			a.Col >= 0 && a.Col < g.Cols
		return inRange && g.LineOf(a) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometrySequentialLinesSpreadChannels(t *testing.T) {
	g := DefaultGeometry()
	// Lines within one row share a channel; consecutive row-sized
	// blocks rotate across channels.
	a0 := g.Map(0)
	a1 := g.Map(uint64(g.Cols))
	if a0.Channel == a1.Channel {
		t.Fatalf("adjacent row blocks on same channel: %v vs %v", a0, a1)
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := (Geometry{}).Validate(); err == nil {
		t.Fatal("zero geometry accepted")
	}
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Channel: 1, Bank: 2, Row: 3, Col: 4}
	if a.String() != "ch1/ba2/row3/col4" {
		t.Fatalf("got %q", a.String())
	}
}

func newTestChannel() *Channel { return NewChannel(8, DDR3_1600()) }

func TestActivateReadPrechargeSequence(t *testing.T) {
	c := newTestChannel()
	tm := c.T
	if !c.CanACT(0, 0) {
		t.Fatal("fresh channel cannot ACT")
	}
	c.IssueACT(0, 42, 0)
	if c.Banks[0].RowHit(42) != true {
		t.Fatal("row not open after ACT")
	}
	if c.CanRD(0, tm.RCD-1) {
		t.Fatal("RD legal before tRCD")
	}
	if !c.CanRD(0, tm.RCD) {
		t.Fatal("RD illegal at tRCD")
	}
	dataAt := c.IssueRD(0, tm.RCD)
	if want := tm.RCD + tm.CL + tm.BL; dataAt != want {
		t.Fatalf("dataAt = %d, want %d", dataAt, want)
	}
	if c.CanPRE(0, tm.RAS-1) {
		t.Fatal("PRE legal before tRAS")
	}
	if !c.CanPRE(0, tm.RAS) {
		t.Fatal("PRE illegal at tRAS")
	}
	c.IssuePRE(0, tm.RAS)
	if c.Banks[0].Open {
		t.Fatal("bank open after PRE")
	}
	if c.CanACT(0, tm.RAS+tm.RP-1) {
		t.Fatal("ACT legal before tRP elapsed")
	}
	// Same-bank re-ACT also needs tRC from the first ACT.
	at := tm.RAS + tm.RP
	if at < tm.RC {
		at = tm.RC
	}
	if !c.CanACT(0, at) {
		t.Fatalf("ACT illegal at %d", at)
	}
}

func TestRRDBetweenBanks(t *testing.T) {
	c := newTestChannel()
	c.IssueACT(0, 1, 0)
	if c.CanACT(1, 1) {
		t.Fatal("second ACT legal 1 tick after first (tRRD violated)")
	}
	if !c.CanACT(1, c.T.RRD) {
		t.Fatal("second ACT illegal at tRRD")
	}
}

func TestFAWLimitsActivates(t *testing.T) {
	c := newTestChannel()
	tm := c.T
	// Issue four ACTs as fast as tRRD allows.
	now := int64(0)
	for b := 0; b < 4; b++ {
		for !c.CanACT(b, now) {
			now++
		}
		c.IssueACT(b, 0, now)
	}
	// Fifth ACT must wait until first ACT + tFAW.
	fifth := now
	for !c.CanACT(4, fifth) {
		fifth++
	}
	if fifth < tm.FAW {
		t.Fatalf("fifth ACT at %d violates tFAW=%d", fifth, tm.FAW)
	}
}

func TestCommandBusOneCommandPerTick(t *testing.T) {
	c := newTestChannel()
	c.IssueACT(0, 0, 0)
	if c.CanACT(1, 0) {
		t.Fatal("two commands on the bus in one tick")
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	c := newTestChannel()
	tm := c.T
	c.IssueACT(0, 0, 0)
	now := tm.RCD
	end := c.IssueWR(0, now)
	if want := now + tm.CWL + tm.BL; end != want {
		t.Fatalf("write data end = %d, want %d", end, want)
	}
	// A read must wait for write data end + tWTR.
	if c.CanRD(0, end+tm.WTR-1) {
		t.Fatal("RD legal before tWTR elapsed")
	}
	if !c.CanRD(0, end+tm.WTR) {
		t.Fatal("RD illegal after tWTR")
	}
}

func TestReadToWriteTurnaround(t *testing.T) {
	c := newTestChannel()
	tm := c.T
	c.IssueACT(0, 0, 0)
	c.IssueRD(0, tm.RCD)
	if c.CanWR(0, tm.RCD+tm.RTW-1) {
		t.Fatal("WR legal before tRTW")
	}
	if !c.CanWR(0, tm.RCD+tm.RTW) {
		t.Fatal("WR illegal at tRTW")
	}
}

func TestWriteRecoveryBeforePrecharge(t *testing.T) {
	c := newTestChannel()
	tm := c.T
	c.IssueACT(0, 0, 0)
	end := c.IssueWR(0, tm.RCD)
	if c.CanPRE(0, end+tm.WR-1) {
		t.Fatal("PRE legal before write recovery")
	}
	if !c.CanPRE(0, end+tm.WR) {
		t.Fatal("PRE illegal after write recovery")
	}
}

func TestReadToPrecharge(t *testing.T) {
	c := newTestChannel()
	tm := c.T
	c.IssueACT(0, 0, 0)
	// Wait out tRAS so only tRTP can be the limiter.
	now := tm.RAS + 10
	for !c.CanRD(0, now) {
		now++
	}
	c.IssueRD(0, now)
	if c.CanPRE(0, now+tm.RTP-1) {
		t.Fatal("PRE legal before tRTP")
	}
	if !c.CanPRE(0, now+tm.RTP) {
		t.Fatal("PRE illegal at tRTP")
	}
}

func TestConsecutiveReadsSpacedByBurst(t *testing.T) {
	c := newTestChannel()
	tm := c.T
	c.IssueACT(0, 0, 0)
	now := tm.RCD
	c.IssueRD(0, now)
	gap := tm.CCD
	if tm.BL > gap {
		gap = tm.BL
	}
	if c.CanRD(0, now+gap-1) && gap > 1 {
		t.Fatal("back-to-back reads violate data bus occupancy")
	}
	if !c.CanRD(0, now+gap) {
		t.Fatal("read illegal after burst gap")
	}
}

func TestRefreshCycle(t *testing.T) {
	c := newTestChannel()
	tm := c.T
	if c.RefreshDue(tm.REFI - 1) {
		t.Fatal("refresh due early")
	}
	if !c.RefreshDue(tm.REFI) {
		t.Fatal("refresh not due at tREFI")
	}
	done := c.IssueREF(tm.REFI)
	if done != tm.REFI+tm.RFC {
		t.Fatalf("refresh done at %d, want %d", done, tm.REFI+tm.RFC)
	}
	if c.CmdBusFree(done - 1) {
		t.Fatal("bus usable during refresh")
	}
	if !c.CanACT(0, done) {
		t.Fatal("ACT illegal after refresh completes")
	}
	if c.NextRefresh != 2*tm.REFI {
		t.Fatalf("next refresh %d, want %d", c.NextRefresh, 2*tm.REFI)
	}
}

func TestRefreshRequiresPrecharged(t *testing.T) {
	c := newTestChannel()
	c.IssueACT(0, 0, 0)
	if c.CanREF(c.T.REFI) {
		t.Fatal("REF legal with open bank")
	}
}

func TestBlockStallsChannelKeepsRows(t *testing.T) {
	c := newTestChannel()
	c.IssueACT(0, 42, 0)
	c.IssueACT(1, 7, c.T.RRD)
	c.Block(c.T.RRD+1, 100)
	// Row state survives: reduced-timing TRNG reads target reserved
	// rows, so regular rows stay open across RNG mode.
	if c.OpenBankCount() != 2 {
		t.Fatalf("open banks = %d, want 2", c.OpenBankCount())
	}
	if !c.Banks[0].RowHit(42) {
		t.Fatal("row buffer lost across Block")
	}
	if c.CanACT(2, 99) || c.CanRD(0, 99) || c.CanPRE(0, 99) {
		t.Fatal("command legal during block")
	}
	if !c.CanACT(2, 100) {
		t.Fatal("ACT illegal after block ends")
	}
	if !c.CanRD(0, 101) { // command bus used by the ACT at 100
		t.Fatal("RD to surviving row illegal after block")
	}
}

func TestCountTicksCountsActiveTicks(t *testing.T) {
	c := newTestChannel()
	c.CountTicks(1) // idle tick
	c.IssueACT(0, 0, 0)
	c.CountTicks(1) // active tick
	if c.ActiveTick != 1 {
		t.Fatalf("ActiveTick = %d, want 1", c.ActiveTick)
	}
	c.CountTicks(5) // a skipped run of active ticks
	if c.ActiveTick != 6 {
		t.Fatalf("ActiveTick = %d after a 5-tick credit, want 6", c.ActiveTick)
	}
}

func TestDeviceConstruction(t *testing.T) {
	d, err := NewDevice(DefaultGeometry(), DDR3_1600())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Channels) != 4 {
		t.Fatalf("channels = %d", len(d.Channels))
	}
	if d.Channel(0) == d.Channel(1) {
		t.Fatal("channels alias")
	}
}

func TestDeviceRejectsBadConfig(t *testing.T) {
	if _, err := NewDevice(Geometry{}, DDR3_1600()); err == nil {
		t.Fatal("bad geometry accepted")
	}
	bad := DDR3_1600()
	bad.REFI = 0
	if _, err := NewDevice(DefaultGeometry(), bad); err == nil {
		t.Fatal("bad timing accepted")
	}
}

func TestMustDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDevice did not panic on bad geometry")
		}
	}()
	MustDevice(Geometry{}, DDR3_1600())
}

func TestTotalCommandCounts(t *testing.T) {
	d := MustDevice(DefaultGeometry(), DDR3_1600())
	d.Channel(0).IssueACT(0, 0, 0)
	d.Channel(1).IssueACT(3, 7, 0)
	acts, _, _, _, _ := d.TotalCommandCounts()
	if acts != 2 {
		t.Fatalf("acts = %d, want 2", acts)
	}
}

func TestIllegalCommandPanics(t *testing.T) {
	cases := []func(c *Channel){
		func(c *Channel) { c.IssueRD(0, 0) },                          // bank closed
		func(c *Channel) { c.IssueWR(0, 0) },                          // bank closed
		func(c *Channel) { c.IssuePRE(0, 0) },                         // bank closed
		func(c *Channel) { c.IssueACT(0, 0, 0); c.IssueACT(0, 1, 5) }, // bank open
		func(c *Channel) { c.IssueREF(0); _ = 0; c.IssueREF(1) },      // during refresh
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: illegal command did not panic", i)
				}
			}()
			f(newTestChannel())
		}()
	}
}

// canNext reports whether the next command a request to (bank, row)
// needs — column access on a row hit, PRE on a conflict, ACT on a
// closed bank — is legal at now. It mirrors the memory controller's
// readiness classification.
func canNext(c *Channel, bank, row int, isWrite bool, now int64) bool {
	b := &c.Banks[bank]
	switch {
	case b.RowHit(row):
		if isWrite {
			return c.CanWR(bank, now)
		}
		return c.CanRD(bank, now)
	case b.Open:
		return c.CanPRE(bank, now)
	default:
		return c.CanACT(bank, now)
	}
}

// EarliestIssue is the lower bound the event-driven engine skips on: it
// must never overshoot (the command must be illegal strictly before it)
// and, absent intervening commands, must be exact (legal at the
// returned tick). Drive a random but legal command sequence and check
// both directions at every step.
func TestEarliestIssueNeverOvershoots(t *testing.T) {
	c := newTestChannel()
	rng := prng.NewSplitMix64(12345)
	now := int64(0)
	check := func() {
		for bank := 0; bank < len(c.Banks); bank++ {
			for _, isWrite := range []bool{false, true} {
				row := c.Banks[bank].Row // hit case when open
				for _, r := range []int{row, row + 1} {
					at := c.EarliestIssue(bank, r, isWrite)
					if at > now && canNext(c, bank, r, isWrite, now) {
						t.Fatalf("overshoot: bank=%d row=%d wr=%v now=%d earliest=%d",
							bank, r, isWrite, now, at)
					}
					if at <= now && !canNext(c, bank, r, isWrite, now) {
						t.Fatalf("stale bound: bank=%d row=%d wr=%v now=%d earliest=%d",
							bank, r, isWrite, now, at)
					}
					// Exactness without intervening commands: legal at
					// the bound itself.
					if at > now && !canNext(c, bank, r, isWrite, at) {
						t.Fatalf("not issuable at own bound: bank=%d row=%d wr=%v now=%d earliest=%d",
							bank, r, isWrite, now, at)
					}
				}
			}
		}
	}
	for step := 0; step < 20000; step++ {
		check()
		// Random legal action, biased toward activity.
		bank := int(rng.Next() % uint64(len(c.Banks)))
		switch rng.Next() % 6 {
		case 0:
			if c.CanACT(bank, now) {
				c.IssueACT(bank, int(rng.Next()%64), now)
			}
		case 1:
			if c.CanRD(bank, now) {
				c.IssueRD(bank, now)
			}
		case 2:
			if c.CanWR(bank, now) {
				c.IssueWR(bank, now)
			}
		case 3:
			if c.CanPRE(bank, now) {
				c.IssuePRE(bank, now)
			}
		case 4:
			if c.RefreshDue(now) && c.CanREF(now) {
				c.IssueREF(now)
			}
		}
		now++
	}
}

// blockPerBank is the reference Block: besides the channel-level
// timers it raises every bank's ACT/PRE/RD/WR timers to until. Block
// leaves the bank timers alone, which must never change an answer.
func blockPerBank(c *Channel, until int64) {
	for i := range c.Banks {
		b := &c.Banks[i]
		b.nextACT = max(b.nextACT, until)
		b.nextPRE = max(b.nextPRE, until)
		b.nextRD = max(b.nextRD, until)
		b.nextWR = max(b.nextWR, until)
	}
	c.nextCmd = max(c.nextCmd, until)
	c.nextRD = max(c.nextRD, until)
	c.nextWR = max(c.nextWR, until)
}

// TestBlockMatchesPerBankReference drives two channels through the same
// random legal command sequence with blocks interleaved, one blocking
// through Block and one through the per-bank reference. At every tick
// every legality check and every EarliestIssue bound must agree.
func TestBlockMatchesPerBankReference(t *testing.T) {
	c, ref := newTestChannel(), newTestChannel()
	rng := prng.NewSplitMix64(2024)
	check := func(now int64) {
		if c.CanREF(now) != ref.CanREF(now) {
			t.Fatalf("now=%d: CanREF %v, reference %v", now, c.CanREF(now), ref.CanREF(now))
		}
		for bank := range c.Banks {
			got := [4]bool{c.CanACT(bank, now), c.CanPRE(bank, now), c.CanRD(bank, now), c.CanWR(bank, now)}
			want := [4]bool{ref.CanACT(bank, now), ref.CanPRE(bank, now), ref.CanRD(bank, now), ref.CanWR(bank, now)}
			if got != want {
				t.Fatalf("now=%d bank=%d: Can{ACT,PRE,RD,WR} = %v, reference %v", now, bank, got, want)
			}
			row := c.Banks[bank].Row
			for _, r := range []int{row, row + 1} {
				for _, isWrite := range []bool{false, true} {
					if got, want := c.EarliestIssue(bank, r, isWrite), ref.EarliestIssue(bank, r, isWrite); got != want {
						t.Fatalf("now=%d bank=%d row=%d wr=%v: EarliestIssue = %d, reference %d",
							now, bank, r, isWrite, got, want)
					}
				}
			}
		}
	}
	blocks := 0
	for now := int64(0); now < 40000; now++ {
		check(now)
		bank := int(rng.Next() % uint64(len(c.Banks)))
		switch rng.Next() % 8 {
		case 0, 1:
			if c.CanACT(bank, now) {
				row := int(rng.Next() % 64)
				c.IssueACT(bank, row, now)
				ref.IssueACT(bank, row, now)
			}
		case 2:
			if c.CanRD(bank, now) {
				c.IssueRD(bank, now)
				ref.IssueRD(bank, now)
			}
		case 3:
			if c.CanWR(bank, now) {
				c.IssueWR(bank, now)
				ref.IssueWR(bank, now)
			}
		case 4:
			if c.CanPRE(bank, now) {
				c.IssuePRE(bank, now)
				ref.IssuePRE(bank, now)
			}
		case 5:
			if c.RefreshDue(now) && c.CanREF(now) {
				c.IssueREF(now)
				ref.IssueREF(now)
			}
		case 6:
			// An RNG-mode phase: a block of up to 40 ticks, sometimes
			// starting inside an earlier one, as a round does at its
			// predecessor's end.
			if rng.Next()%4 == 0 {
				until := now + int64(rng.Next()%40)
				c.Block(now, until)
				blockPerBank(ref, until)
				blocks++
			}
		}
	}
	if blocks < 100 {
		t.Fatalf("only %d blocks interleaved", blocks)
	}
}

// BenchmarkChannelIssue times one tick of a random legal command stream
// on one channel: each tick asks EarliestIssue about a random request
// (bank, row, read or write), then issues that request's next command
// (refresh first when due) if its Can* check passes.
func BenchmarkChannelIssue(b *testing.B) {
	t := DDR3_1600()
	ch := NewChannel(8, t)
	rng := prng.NewSplitMix64(7)
	var sink int64
	issued := 0
	b.ReportAllocs()
	for now := int64(0); now < int64(b.N); now++ {
		r := rng.Next()
		bank, row, write := int(r%8), int(r>>8%16), r>>16&1 == 1
		sink += ch.EarliestIssue(bank, row, write)
		bk := &ch.Banks[bank]
		switch {
		case ch.RefreshDue(now):
			if ch.AllPrecharged() {
				if ch.CanREF(now) {
					ch.IssueREF(now)
					issued++
				}
			} else if bk.Open && ch.CanPRE(bank, now) {
				ch.IssuePRE(bank, now)
				issued++
			}
		case bk.RowHit(row) && write && ch.CanWR(bank, now):
			sink += ch.IssueWR(bank, now)
			issued++
		case bk.RowHit(row) && !write && ch.CanRD(bank, now):
			sink += ch.IssueRD(bank, now)
			issued++
		case bk.Open && !bk.RowHit(row) && ch.CanPRE(bank, now):
			ch.IssuePRE(bank, now)
			issued++
		case !bk.Open && ch.CanACT(bank, now):
			ch.IssueACT(bank, row, now)
			issued++
		}
	}
	if b.N >= 1000 && issued == 0 {
		b.Fatal("no command issued")
	}
	_ = sink
}
