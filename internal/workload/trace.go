package workload

import (
	"math"

	"drstrange/internal/cpu"
	"drstrange/internal/dram"
	"drstrange/internal/prng"
)

// appTrace generates an infinite instruction stream for a Profile.
// Access gaps follow a two-phase (burst/quiet) process whose mixture
// mean matches the profile's MPKI; addresses follow a row-locality
// process over a bounded per-core working set.
type appTrace struct {
	p    Profile
	geom dram.Geometry
	rng  *prng.Xoshiro256

	rowBase int // per-core row offset so co-running apps do not share rows

	cur     dram.Addr
	haveCur bool
}

// NewTrace builds the profile's trace generator. rowBase offsets the
// app's working set (sim assigns a disjoint region per core); seed
// fixes the stream.
func (p Profile) NewTrace(geom dram.Geometry, rowBase int, seed uint64) cpu.Trace {
	return p.newAppTrace(geom, rowBase, seed)
}

func (p Profile) newAppTrace(geom dram.Geometry, rowBase int, seed uint64) *appTrace {
	return &appTrace{
		p:       p,
		geom:    geom,
		rng:     prng.NewXoshiro256(seed ^ hashName(p.Name)),
		rowBase: rowBase,
	}
}

func hashName(s string) uint64 {
	// FNV-1a, so each profile gets a distinct deterministic substream
	// even under the same seed.
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// gap draws the compute-instruction gap before the next memory access.
func (t *appTrace) gap() int {
	mean := 1000/t.p.MPKI - 1
	if mean < 1 {
		mean = 1
	}
	b := t.p.Burstiness
	var phaseMean float64
	if t.rng.Bernoulli(0.2) {
		// Quiet phase: long gaps create the idle periods of Figure 5.
		phaseMean = mean * (1 + 4*b)
	} else {
		phaseMean = mean * (1 - b)
	}
	if phaseMean < 1 {
		phaseMean = 1
	}
	// Geometric with the requested mean: p = 1/(1+mean).
	return t.rng.Geometric(1 / (1 + phaseMean))
}

// next address: reuse the open row sequentially with probability
// RowLocality, else jump to a random row of a random bank.
func (t *appTrace) nextLine() uint64 {
	if t.haveCur && t.rng.Bernoulli(t.p.RowLocality) {
		t.cur.Col = (t.cur.Col + 1) % t.geom.Cols
	} else {
		ws := t.p.WorkingSetRows
		if ws <= 0 || ws > t.geom.Rows {
			ws = t.geom.Rows
		}
		t.cur = dram.Addr{
			Channel: t.rng.Intn(t.geom.Channels),
			Bank:    t.rng.Intn(t.geom.Banks),
			Row:     (t.rowBase + t.rng.Intn(ws)) % t.geom.Rows,
			Col:     t.rng.Intn(t.geom.Cols),
		}
		t.haveCur = true
	}
	return t.geom.LineOf(t.cur)
}

// CloneTrace implements cpu.TraceCloner: the copy continues the
// identical op stream.
func (t *appTrace) CloneTrace() cpu.Trace {
	cp := *t
	cp.rng = t.rng.Clone()
	return &cp
}

// NextOp implements cpu.Trace.
func (t *appTrace) NextOp() cpu.Op {
	kind := cpu.OpLoad
	if t.rng.Bernoulli(t.p.WriteRatio) {
		kind = cpu.OpStore
	}
	return cpu.Op{NonMem: t.gap(), Kind: kind, Line: t.nextLine()}
}

// RNGTraceConfig parameterizes the synthetic RNG benchmarks of Section
// 7: applications that request 64-bit random numbers at a required
// throughput and touch memory lightly across all banks and channels.
type RNGTraceConfig struct {
	// ThroughputMbps is the required random-number throughput.
	ThroughputMbps float64
	// CPUHz and PeakIPC convert the throughput into an instruction gap
	// between requests (Section 7: intensity is controlled by the
	// instruction count between two 64-bit requests).
	CPUHz   float64
	PeakIPC float64
	// RegularMPKI is the benchmark's light non-RNG memory intensity.
	RegularMPKI float64
	Seed        uint64
}

// DefaultRNGTraceConfig returns the paper's synthetic benchmark
// parameters for the given required throughput (Mb/s).
func DefaultRNGTraceConfig(mbps float64) RNGTraceConfig {
	return RNGTraceConfig{
		ThroughputMbps: mbps,
		CPUHz:          4e9,
		PeakIPC:        3,
		RegularMPKI:    0.5,
		Seed:           0xD1CE,
	}
}

// maxInstructionGap is the gap of a vanishing throughput: far beyond
// any instruction budget, and exactly representable as an int.
const maxInstructionGap = math.MaxInt >> 1

// InstructionGap returns the compute-instruction gap between requests
// implied by the required throughput: 640 Mb/s -> 1200 instructions,
// 5120 Mb/s -> 150 (at 4 GHz, 3-wide). A throughput so small that the
// gap would overflow an int, or a non-finite one, gets
// maxInstructionGap: the conversion must not wrap a tiny rate into the
// heaviest load.
func (c RNGTraceConfig) InstructionGap() int {
	reqPerSec := c.ThroughputMbps * 1e6 / 64
	cyclesBetween := c.CPUHz / reqPerSec
	g := c.PeakIPC * cyclesBetween
	if !(g < maxInstructionGap) {
		return maxInstructionGap
	}
	gap := int(g)
	if gap < 1 {
		gap = 1
	}
	return gap
}

type rngTrace struct {
	cfg  RNGTraceConfig
	gap  int
	geom dram.Geometry
	rng  *prng.Xoshiro256

	// pLoad is the probability of prepending a light load to an RNG
	// request, chosen so the regular-access rate hits RegularMPKI
	// without disturbing the RNG request cadence. pending is held by
	// value: NextOp runs once per memory operation, and a heap
	// allocation there would dominate the simulator's steady-state
	// allocation profile.
	pLoad      float64
	pending    cpu.Op
	hasPending bool
}

// NewRNGTrace builds the synthetic RNG benchmark trace.
func NewRNGTrace(cfg RNGTraceConfig, geom dram.Geometry) cpu.Trace {
	if cfg.ThroughputMbps <= 0 {
		panic("workload: RNG benchmark needs positive throughput")
	}
	gap := cfg.InstructionGap()
	pLoad := cfg.RegularMPKI * float64(gap) / 1000
	if pLoad > 1 {
		pLoad = 1
	}
	return &rngTrace{
		cfg:   cfg,
		gap:   gap,
		geom:  geom,
		rng:   prng.NewXoshiro256(cfg.Seed),
		pLoad: pLoad,
	}
}

// CloneTrace implements cpu.TraceCloner: the copy continues the
// identical op stream.
func (t *rngTrace) CloneTrace() cpu.Trace {
	cp := *t
	cp.rng = t.rng.Clone()
	return &cp
}

// NextOp implements cpu.Trace: RNG requests at the required cadence,
// with light loads spread across all banks and channels interleaved
// into the compute gaps.
func (t *rngTrace) NextOp() cpu.Op {
	if t.hasPending {
		t.hasPending = false
		return t.pending
	}
	if t.pLoad > 0 && t.rng.Bernoulli(t.pLoad) {
		half := t.gap / 2
		t.pending = cpu.Op{NonMem: t.gap - half, Kind: cpu.OpRand}
		t.hasPending = true
		line := t.geom.LineOf(dram.Addr{
			Channel: t.rng.Intn(t.geom.Channels),
			Bank:    t.rng.Intn(t.geom.Banks),
			Row:     t.rng.Intn(t.geom.Rows),
			Col:     t.rng.Intn(t.geom.Cols),
		})
		return cpu.Op{NonMem: half, Kind: cpu.OpLoad, Line: line}
	}
	return cpu.Op{NonMem: t.gap, Kind: cpu.OpRand}
}
