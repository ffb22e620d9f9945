// Package energy estimates DRAM energy the way DRAMPower does
// (Chandrasekar et al.): per-command incremental energies derived from
// the device's IDD current specifications, plus state-dependent
// background power, integrated over the command counts and state
// residencies the simulator records. It stands in for the paper's
// DRAMPower runs (Section 8.9).
//
// It also carries the 22 nm area accounting interface the paper pairs
// with the energy numbers; the area model itself lives in
// internal/core (it prices DR-STRaNGe's structures).
package energy

import (
	"fmt"

	"drstrange/internal/dram"
)

// Params are the DDR3 device's electrical parameters. Currents are in
// milliamps per device; ChipsPerRank scales device energy to rank
// energy (a 64-bit x8 rank has 8 chips).
type Params struct {
	VDD   float64 // volts
	IDD0  float64 // activate-precharge cycle current
	IDD2N float64 // precharge standby
	IDD3N float64 // active standby
	IDD4R float64 // read burst
	IDD4W float64 // write burst
	IDD5  float64 // refresh

	ChipsPerRank int
	TickSeconds  float64 // simulator tick duration (5 ns)
}

// DDR3Params returns 2 Gb DDR3-1600 datasheet values (Micron-class
// device) in the simulator's 5 ns tick domain.
func DDR3Params() Params {
	return Params{
		VDD:          1.5,
		IDD0:         95,
		IDD2N:        42,
		IDD3N:        45,
		IDD4R:        180,
		IDD4W:        185,
		IDD5:         215,
		ChipsPerRank: 8,
		TickSeconds:  5e-9,
	}
}

// Counts are the simulator-side inputs: total DRAM command counts and
// state residencies across all channels, plus the TRNG activity the
// controller performed (RNG rounds are priced as one activate-read
// sweep of every bank).
type Counts struct {
	ACTs int64
	RDs  int64
	WRs  int64
	REFs int64

	// ActiveTicks is the sum over channels of ticks with >= 1 open
	// bank; TotalChannelTicks is simulation ticks x channels.
	ActiveTicks       int64
	TotalChannelTicks int64

	// RNGRounds and BanksPerChannel price TRNG generation activity.
	RNGRounds       int64
	BanksPerChannel int
}

// CountsFrom gathers Counts from a device plus controller-side RNG
// stats.
func CountsFrom(dev *dram.Device, totalTicks, rngRounds int64) Counts {
	acts, _, rds, wrs, refs := dev.TotalCommandCounts()
	var active int64
	for _, ch := range dev.Channels {
		active += ch.ActiveTick
	}
	return Counts{
		ACTs:              acts,
		RDs:               rds,
		WRs:               wrs,
		REFs:              refs,
		ActiveTicks:       active,
		TotalChannelTicks: totalTicks * int64(len(dev.Channels)),
		RNGRounds:         rngRounds,
		BanksPerChannel:   dev.Geom.Banks,
	}
}

// Add accumulates o's counts into c: multi-channel-shard systems sum
// their per-device counts before one Compute call. Every Compute term
// is linear in a count, so summing first is exact. BanksPerChannel is
// a shared multiplier, not a count — the devices must agree on it.
func (c *Counts) Add(o Counts) {
	c.ACTs += o.ACTs
	c.RDs += o.RDs
	c.WRs += o.WRs
	c.REFs += o.REFs
	c.ActiveTicks += o.ActiveTicks
	c.TotalChannelTicks += o.TotalChannelTicks
	c.RNGRounds += o.RNGRounds
	if c.BanksPerChannel == 0 {
		c.BanksPerChannel = o.BanksPerChannel
	}
}

// Breakdown is the energy result in joules.
type Breakdown struct {
	ActPre     float64
	Read       float64
	Write      float64
	Refresh    float64
	RNG        float64
	Background float64
	Total      float64
}

// Compute integrates the DRAMPower closed forms over the counts.
func Compute(p Params, t dram.Timing, c Counts) Breakdown {
	if p.ChipsPerRank <= 0 || p.TickSeconds <= 0 {
		panic("energy: invalid params")
	}
	mAtoA := 1e-3
	scale := p.VDD * mAtoA * p.TickSeconds * float64(p.ChipsPerRank)

	// Incremental (above-background) energy per command, DRAMPower
	// style: the ACT/PRE pair draws IDD0 over tRC against an IDD3N
	// (tRAS) + IDD2N (tRC-tRAS) background.
	eAct := (p.IDD0*float64(t.RC) - p.IDD3N*float64(t.RAS) - p.IDD2N*float64(t.RC-t.RAS)) * scale
	eRd := (p.IDD4R - p.IDD3N) * float64(t.BL) * scale
	eWr := (p.IDD4W - p.IDD3N) * float64(t.BL) * scale
	eRef := (p.IDD5 - p.IDD2N) * float64(t.RFC) * scale

	var b Breakdown
	b.ActPre = float64(c.ACTs) * eAct
	b.Read = float64(c.RDs) * eRd
	b.Write = float64(c.WRs) * eWr
	b.Refresh = float64(c.REFs) * eRef
	// One RNG round sweeps every bank with a reduced-timing
	// activate+read; the violated tRCD shortens the activate window,
	// modeled as half an ACT/PRE pair plus a read burst per bank.
	perBank := 0.5*eAct + eRd
	b.RNG = float64(c.RNGRounds) * float64(c.BanksPerChannel) * perBank

	idleTicks := c.TotalChannelTicks - c.ActiveTicks
	if idleTicks < 0 {
		idleTicks = 0
	}
	b.Background = (float64(c.ActiveTicks)*p.IDD3N + float64(idleTicks)*p.IDD2N) * scale

	b.Total = b.ActPre + b.Read + b.Write + b.Refresh + b.RNG + b.Background
	return b
}

// String renders the breakdown in millijoules.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%.3fmJ (act/pre=%.3f rd=%.3f wr=%.3f ref=%.3f rng=%.3f bg=%.3f)",
		b.Total*1e3, b.ActPre*1e3, b.Read*1e3, b.Write*1e3, b.Refresh*1e3, b.RNG*1e3, b.Background*1e3)
}
