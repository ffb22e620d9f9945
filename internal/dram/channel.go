package dram

import "fmt"

// Channel models one memory channel with a single rank of banks, a
// command bus (one command per tick) and a shared data bus. It enforces
// every inter-command constraint in Timing; callers (the memory
// controller) are responsible for choosing commands, not for legality.
type Channel struct {
	T     Timing
	Banks []Bank

	nextCmd int64 // command bus free at this tick
	nextRD  int64 // earliest next READ (CCD, WTR, data bus)
	nextWR  int64 // earliest next WRITE (CCD, RTW, data bus)

	lastACT  int64    // for tRRD
	actTimes [4]int64 // ring buffer of recent ACT ticks, for tFAW
	actIdx   int

	// Refresh bookkeeping. The controller drives refresh; the channel
	// tracks when the next one is due and until when one is in flight.
	NextRefresh  int64
	RefreshUntil int64

	openBanks int // incremental count for the energy model

	// Statistics.
	REFs       int64
	ActiveTick int64 // ticks with >= 1 open bank (energy: active standby)
}

// NewChannel returns a channel with banks banks, timings t, and the
// first refresh due after one tREFI.
func NewChannel(banks int, t Timing) *Channel {
	return &Channel{
		T:           t,
		Banks:       make([]Bank, banks),
		NextRefresh: t.REFI,
		lastACT:     -1 << 62,
		actTimes:    [4]int64{-1 << 62, -1 << 62, -1 << 62, -1 << 62},
	}
}

// Clone returns an independent deep copy of the channel: all timing
// state, the per-bank state machines, and the statistics counters. The
// copy evolves byte-identically to the original under the same command
// sequence (snapshot/restore support).
func (c *Channel) Clone() *Channel {
	cp := *c
	cp.Banks = make([]Bank, len(c.Banks))
	copy(cp.Banks, c.Banks)
	return &cp
}

// CmdBusFree reports whether the command bus can carry a command at now.
//
//drstrange:noalloc
func (c *Channel) CmdBusFree(now int64) bool {
	return now >= c.nextCmd && now >= c.RefreshUntil
}

// CanACT reports whether ACTIVATE(bank, row) is legal at now.
//
//drstrange:noalloc
func (c *Channel) CanACT(bank int, now int64) bool {
	return c.CmdBusFree(now) &&
		c.Banks[bank].canACT(now) &&
		now >= c.lastACT+c.T.RRD &&
		now >= c.actTimes[c.actIdx]+c.T.FAW
}

// IssueACT opens row in bank. It panics if the command is illegal; the
// controller must check CanACT first — issuing blind would silently
// corrupt the timing model, which is the one error this package treats
// as a programming bug rather than a runtime condition.
//
//drstrange:noalloc
func (c *Channel) IssueACT(bank, row int, now int64) {
	if !c.CanACT(bank, now) {
		//drstrange:alloc-ok cold path: Sprintf only feeds the contract-violation panic
		panic(fmt.Sprintf("dram: illegal ACT bank=%d now=%d", bank, now))
	}
	b := &c.Banks[bank]
	b.Open = true
	b.Row = row
	b.nextRD = now + c.T.RCD
	b.nextWR = now + c.T.RCD
	b.nextPRE = now + c.T.RAS
	b.nextACT = now + c.T.RC
	b.ACTs++
	c.lastACT = now
	c.actTimes[c.actIdx] = now
	c.actIdx = (c.actIdx + 1) % len(c.actTimes)
	c.nextCmd = now + 1
	c.openBanks++
}

// CanPRE reports whether PRECHARGE(bank) is legal at now.
//
//drstrange:noalloc
func (c *Channel) CanPRE(bank int, now int64) bool {
	return c.CmdBusFree(now) && c.Banks[bank].canPRE(now)
}

// IssuePRE closes the open row in bank.
//
//drstrange:noalloc
func (c *Channel) IssuePRE(bank int, now int64) {
	if !c.CanPRE(bank, now) {
		//drstrange:alloc-ok cold path: Sprintf only feeds the contract-violation panic
		panic(fmt.Sprintf("dram: illegal PRE bank=%d now=%d", bank, now))
	}
	b := &c.Banks[bank]
	b.Open = false
	if na := now + c.T.RP; na > b.nextACT {
		b.nextACT = na
	}
	b.PREs++
	c.nextCmd = now + 1
	c.openBanks--
}

// CanRD reports whether READ(bank) is legal at now.
//
//drstrange:noalloc
func (c *Channel) CanRD(bank int, now int64) bool {
	return c.CmdBusFree(now) && c.Banks[bank].canRD(now) && now >= c.nextRD
}

// IssueRD issues a READ and returns the tick at which the full data
// burst has arrived at the controller.
func (c *Channel) IssueRD(bank int, now int64) (dataAt int64) {
	if !c.CanRD(bank, now) {
		panic(fmt.Sprintf("dram: illegal RD bank=%d now=%d", bank, now))
	}
	b := &c.Banks[bank]
	b.RDs++
	if p := now + c.T.RTP; p > b.nextPRE {
		b.nextPRE = p
	}
	gap := c.T.CCD
	if c.T.BL > gap {
		gap = c.T.BL
	}
	c.nextRD = now + gap
	if w := now + c.T.RTW; w > c.nextWR {
		c.nextWR = w
	}
	c.nextCmd = now + 1
	return now + c.T.CL + c.T.BL
}

// CanWR reports whether WRITE(bank) is legal at now.
func (c *Channel) CanWR(bank int, now int64) bool {
	return c.CmdBusFree(now) && c.Banks[bank].canWR(now) && now >= c.nextWR
}

// IssueWR issues a WRITE and returns the tick at which the write data
// burst completes (write recovery starts then).
func (c *Channel) IssueWR(bank int, now int64) (dataEnd int64) {
	if !c.CanWR(bank, now) {
		panic(fmt.Sprintf("dram: illegal WR bank=%d now=%d", bank, now))
	}
	b := &c.Banks[bank]
	b.WRs++
	end := now + c.T.CWL + c.T.BL
	if p := end + c.T.WR; p > b.nextPRE {
		b.nextPRE = p
	}
	gap := c.T.CCD
	if c.T.BL > gap {
		gap = c.T.BL
	}
	c.nextWR = now + gap
	if r := end + c.T.WTR; r > c.nextRD {
		c.nextRD = r
	}
	c.nextCmd = now + 1
	return end
}

// RefreshDue reports whether the controller must schedule a refresh.
func (c *Channel) RefreshDue(now int64) bool { return now >= c.NextRefresh }

// AllPrecharged reports whether every bank is closed (a REFRESH
// precondition).
func (c *Channel) AllPrecharged() bool { return c.openBanks == 0 }

// CanREF reports whether a REFRESH may be issued at now.
func (c *Channel) CanREF(now int64) bool {
	return c.CmdBusFree(now) && c.AllPrecharged()
}

// IssueREF starts an all-bank refresh; the channel is unusable until
// the returned tick.
func (c *Channel) IssueREF(now int64) (doneAt int64) {
	if !c.CanREF(now) {
		panic(fmt.Sprintf("dram: illegal REF now=%d", now))
	}
	c.REFs++
	c.RefreshUntil = now + c.T.RFC
	c.NextRefresh += c.T.REFI
	for i := range c.Banks {
		if na := c.RefreshUntil; na > c.Banks[i].nextACT {
			c.Banks[i].nextACT = na
		}
	}
	c.nextCmd = c.RefreshUntil
	return c.RefreshUntil
}

// Block makes the channel unusable for regular commands until tick
// until. The memory controller uses this to model RNG mode: while DRAM
// timing parameters are relaxed for TRNG operation, regular data
// accesses must not issue (Section 2 of the paper). RNG-mode rounds
// are modeled at this granularity rather than per violated command;
// see internal/trng.
//
// Regular rows stay open across the block: reduced-timing TRNG reads
// target the reserved RNG rows, so data reliability is ensured by not
// issuing regular commands while timings are relaxed — the open row
// buffers of regular rows are untouched and regular operation resumes
// with row state intact.
//
// Only the command-bus timer moves; raising the data-bus timers
// (nextRD, nextWR) or any bank's timers too would change no answer.
// Every Can* check requires CmdBusFree, and EarliestIssue takes the
// maximum with nextCmd, which never falls, so before until a timer
// raised to until is hidden behind nextCmd. From until on, such a timer
// would sit at or below now, and every later update of one either
// overwrites it or takes the maximum with a tick past now. Block runs
// at every RNG round start, so it stays O(1) in the bank count.
func (c *Channel) Block(now, until int64) {
	if c.nextCmd < until {
		c.nextCmd = until
	}
	// Refresh obligations keep accruing while blocked; if one became
	// due it will be serviced right after the block ends.
}

// OpenBankCount returns how many banks currently hold an open row.
func (c *Channel) OpenBankCount() int { return c.openBanks }

// CountTicks credits n ticks of the channel's current state to the
// per-tick counters (energy accounting). The controller calls it with
// n = 1 once per executed tick, and the event-driven engine with the
// length of a run of skipped ticks, which it proves state-invariant (no
// command can issue, so openBanks cannot change mid-skip).
//
//drstrange:noalloc
func (c *Channel) CountTicks(n int64) {
	if c.openBanks > 0 {
		c.ActiveTick += n
	}
}

// EarliestIssue returns the earliest tick at or after which the next
// DRAM command needed by a request to (bank, row) could legally issue:
// the column command on a row hit, PRE on a row conflict, ACT on a
// closed bank. It mirrors the legality checks of CanRD/CanWR/CanPRE/
// CanACT, so for any t below the returned tick the corresponding Can*
// call is guaranteed false (assuming no commands issue in between) —
// the lower-bound invariant the event-driven engine's tick-skipping
// relies on.
//
//drstrange:noalloc
func (c *Channel) EarliestIssue(bank, row int, isWrite bool) int64 {
	b := &c.Banks[bank]
	t := c.nextCmd
	if c.RefreshUntil > t {
		t = c.RefreshUntil
	}
	switch {
	case b.RowHit(row):
		if isWrite {
			if b.nextWR > t {
				t = b.nextWR
			}
			if c.nextWR > t {
				t = c.nextWR
			}
		} else {
			if b.nextRD > t {
				t = b.nextRD
			}
			if c.nextRD > t {
				t = c.nextRD
			}
		}
	case b.Open:
		if b.nextPRE > t {
			t = b.nextPRE
		}
	default:
		if b.nextACT > t {
			t = b.nextACT
		}
		if x := c.lastACT + c.T.RRD; x > t {
			t = x
		}
		if x := c.actTimes[c.actIdx] + c.T.FAW; x > t {
			t = x
		}
	}
	return t
}

// CommandCounts sums per-bank command statistics. It is the energy
// model's input.
func (c *Channel) CommandCounts() (acts, pres, rds, wrs, refs int64) {
	for i := range c.Banks {
		acts += c.Banks[i].ACTs
		pres += c.Banks[i].PREs
		rds += c.Banks[i].RDs
		wrs += c.Banks[i].WRs
	}
	return acts, pres, rds, wrs, c.REFs
}
