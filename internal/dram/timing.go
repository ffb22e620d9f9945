// Package dram models a DDR3 main memory device at command granularity:
// channels, banks, per-bank state machines, inter-command timing
// constraints, the command/data buses, and periodic refresh.
//
// It is the simulation substrate of this repository (the role Ramulator
// plays in the DR-STRaNGe paper, HPCA 2022). The memory controller in
// internal/memctrl decides *which* command to issue; this package
// decides *whether* a command is legal now and tracks the consequences.
//
// Clock domain. All times are in "memory cycles" — the paper's unit —
// defined as 5 ns ticks (a 200 MHz controller clock; the paper equates
// 198 memory cycles with 990 ns). DDR3-1600 timing parameters are
// converted into this tick domain in DDR3_1600.
package dram

// Timing holds the inter-command timing constraints of a DRAM device,
// all expressed in memory cycles (5 ns ticks).
type Timing struct {
	RCD  int64 // ACTIVATE to internal READ/WRITE delay
	RP   int64 // PRECHARGE to ACTIVATE delay
	CL   int64 // READ column access strobe latency (data appears CL after RD)
	CWL  int64 // WRITE latency (data driven CWL after WR)
	RAS  int64 // ACTIVATE to PRECHARGE minimum
	RC   int64 // ACTIVATE to ACTIVATE, same bank
	BL   int64 // data burst duration on the bus
	CCD  int64 // column command to column command minimum
	RRD  int64 // ACTIVATE to ACTIVATE, different banks
	FAW  int64 // four-activate window
	WR   int64 // write recovery (end of write data to PRECHARGE)
	WTR  int64 // end of write data to READ command
	RTP  int64 // READ to PRECHARGE
	RTW  int64 // READ command to WRITE command turnaround
	RFC  int64 // REFRESH cycle time
	REFI int64 // average refresh interval
}

// DDR3_1600 returns DDR3-1600 (11-11-11) timings converted to the 5 ns
// memory-cycle domain used throughout the simulator. Sub-tick values
// round up, which is the conservative (correctness-preserving) choice.
func DDR3_1600() Timing {
	return Timing{
		RCD:  3,    // 13.75 ns
		RP:   3,    // 13.75 ns
		CL:   3,    // 13.75 ns
		CWL:  2,    // 10 ns
		RAS:  7,    // 35 ns
		RC:   10,   // 48.75 ns
		BL:   1,    // 8-beat burst at 1600 MT/s = 5 ns
		CCD:  1,    // 4 bus clocks = 5 ns
		RRD:  2,    // 7.5 ns
		FAW:  8,    // 40 ns
		WR:   3,    // 15 ns
		WTR:  2,    // 7.5 ns
		RTP:  2,    // 7.5 ns
		RTW:  2,    // CL + CCD - CWL + bus turnaround, rounded
		RFC:  32,   // 160 ns (2 Gb device)
		REFI: 1560, // 7.8 us
	}
}

// Validate reports whether the timing set is internally consistent
// (every constraint positive and RC covering RAS+RP). It exists so that
// experiment configs that scale timings cannot silently construct a
// device that deadlocks the bank state machines.
func (t Timing) Validate() error {
	type field struct {
		name string
		v    int64
	}
	for _, f := range []field{
		{"RCD", t.RCD}, {"RP", t.RP}, {"CL", t.CL}, {"CWL", t.CWL},
		{"RAS", t.RAS}, {"RC", t.RC}, {"BL", t.BL}, {"CCD", t.CCD},
		{"RRD", t.RRD}, {"FAW", t.FAW}, {"WR", t.WR}, {"WTR", t.WTR},
		{"RTP", t.RTP}, {"RTW", t.RTW}, {"RFC", t.RFC}, {"REFI", t.REFI},
	} {
		if f.v <= 0 {
			return &TimingError{Field: f.name, Value: f.v}
		}
	}
	if t.RC < t.RAS+t.RP {
		return &TimingError{Field: "RC", Value: t.RC, Reason: "tRC must cover tRAS+tRP"}
	}
	if t.FAW < t.RRD {
		return &TimingError{Field: "FAW", Value: t.FAW, Reason: "tFAW must cover tRRD"}
	}
	return nil
}

// TimingError describes an invalid timing parameter.
type TimingError struct {
	Field  string
	Value  int64
	Reason string
}

func (e *TimingError) Error() string {
	if e.Reason != "" {
		return "dram: invalid timing " + e.Field + ": " + e.Reason
	}
	return "dram: timing parameter " + e.Field + " must be positive"
}
