// Package workload provides the simulator's application suite: 43
// statistical trace generators named and calibrated after the paper's
// benchmarks (SPEC CPU2006, TPC, STREAM, MediaBench, YCSB), the
// synthetic RNG benchmarks with configurable required throughput, and
// the multiprogrammed mix tables of the paper's Tables 2 and 3.
//
// Each profile stands in for the benchmark's recorded trace and
// reproduces the three axes the paper's results depend on: memory
// intensity (MPKI class), row-buffer locality, and burstiness (which
// shapes the DRAM idle-period distribution of Figures 5 and 18).
// Generators are deterministic per (profile, seed).
package workload

import (
	"fmt"
	"sort"
)

// Class is the paper's memory-intensity grouping: L (MPKI < 1),
// M (1 <= MPKI < 10), H (MPKI >= 10).
type Class uint8

// Memory-intensity classes.
const (
	ClassL Class = iota
	ClassM
	ClassH
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassL:
		return "L"
	case ClassM:
		return "M"
	case ClassH:
		return "H"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Profile statistically describes one application.
type Profile struct {
	Name  string
	Suite string
	// MPKI is the target last-level-cache misses per kilo-instruction.
	MPKI float64
	// RowLocality is the probability that an access reuses the
	// currently open row of its bank (sequential within the row).
	RowLocality float64
	// WriteRatio is the fraction of misses that are writebacks.
	WriteRatio float64
	// Burstiness in [0,1): higher values cluster accesses into bursts
	// separated by long quiet phases, producing long DRAM idle
	// periods.
	Burstiness float64
	// WorkingSetRows bounds the rows touched per bank.
	WorkingSetRows int
}

// Class returns the profile's memory-intensity class.
func (p Profile) Class() Class {
	switch {
	case p.MPKI < 1:
		return ClassL
	case p.MPKI < 10:
		return ClassM
	default:
		return ClassH
	}
}

// profiles is the 43-application suite. The first 23 names appear on
// the paper's per-application figure axes (in its left-to-right order);
// the rest complete the 43-app population the paper draws multicore
// mixes from. MPKI/locality values are calibrated to the app's known
// character (e.g. mcf pointer-chasing: high MPKI, low locality; libq
// streaming: high MPKI, high locality).
var profiles = []Profile{
	// Figure-axis applications, paper order.
	{Name: "ycsb3", Suite: "YCSB", MPKI: 0.30, RowLocality: 0.35, WriteRatio: 0.30, Burstiness: 0.60, WorkingSetRows: 512},
	{Name: "ycsb4", Suite: "YCSB", MPKI: 0.35, RowLocality: 0.35, WriteRatio: 0.32, Burstiness: 0.60, WorkingSetRows: 512},
	{Name: "ycsb2", Suite: "YCSB", MPKI: 0.40, RowLocality: 0.35, WriteRatio: 0.28, Burstiness: 0.58, WorkingSetRows: 512},
	{Name: "ycsb1", Suite: "YCSB", MPKI: 0.45, RowLocality: 0.35, WriteRatio: 0.30, Burstiness: 0.55, WorkingSetRows: 512},
	{Name: "sphinx3", Suite: "SPEC2006", MPKI: 0.60, RowLocality: 0.55, WriteRatio: 0.15, Burstiness: 0.40, WorkingSetRows: 256},
	{Name: "ycsb0", Suite: "YCSB", MPKI: 0.75, RowLocality: 0.35, WriteRatio: 0.30, Burstiness: 0.55, WorkingSetRows: 512},
	{Name: "jp2d", Suite: "MediaBench", MPKI: 1.2, RowLocality: 0.65, WriteRatio: 0.25, Burstiness: 0.45, WorkingSetRows: 128},
	{Name: "tpcc64", Suite: "TPC", MPKI: 1.6, RowLocality: 0.40, WriteRatio: 0.35, Burstiness: 0.50, WorkingSetRows: 1024},
	{Name: "jp2e", Suite: "MediaBench", MPKI: 2.0, RowLocality: 0.70, WriteRatio: 0.30, Burstiness: 0.45, WorkingSetRows: 128},
	{Name: "wcount0", Suite: "STREAM", MPKI: 2.4, RowLocality: 0.75, WriteRatio: 0.35, Burstiness: 0.30, WorkingSetRows: 256},
	{Name: "cactus", Suite: "SPEC2006", MPKI: 3.0, RowLocality: 0.60, WriteRatio: 0.25, Burstiness: 0.35, WorkingSetRows: 512},
	{Name: "astar", Suite: "SPEC2006", MPKI: 3.6, RowLocality: 0.30, WriteRatio: 0.20, Burstiness: 0.40, WorkingSetRows: 1024},
	{Name: "tpch17", Suite: "TPC", MPKI: 4.2, RowLocality: 0.55, WriteRatio: 0.20, Burstiness: 0.35, WorkingSetRows: 2048},
	{Name: "soplex", Suite: "SPEC2006", MPKI: 5.0, RowLocality: 0.55, WriteRatio: 0.25, Burstiness: 0.30, WorkingSetRows: 1024},
	{Name: "milc", Suite: "SPEC2006", MPKI: 5.8, RowLocality: 0.50, WriteRatio: 0.30, Burstiness: 0.25, WorkingSetRows: 1024},
	{Name: "gems", Suite: "SPEC2006", MPKI: 6.6, RowLocality: 0.60, WriteRatio: 0.30, Burstiness: 0.25, WorkingSetRows: 1024},
	{Name: "leslie3d", Suite: "SPEC2006", MPKI: 7.5, RowLocality: 0.80, WriteRatio: 0.30, Burstiness: 0.20, WorkingSetRows: 512},
	{Name: "tpch2", Suite: "TPC", MPKI: 8.4, RowLocality: 0.55, WriteRatio: 0.20, Burstiness: 0.30, WorkingSetRows: 2048},
	{Name: "zeusmp", Suite: "SPEC2006", MPKI: 9.4, RowLocality: 0.65, WriteRatio: 0.30, Burstiness: 0.20, WorkingSetRows: 512},
	{Name: "lbm", Suite: "SPEC2006", MPKI: 15, RowLocality: 0.85, WriteRatio: 0.40, Burstiness: 0.10, WorkingSetRows: 512},
	{Name: "mcf", Suite: "SPEC2006", MPKI: 22, RowLocality: 0.20, WriteRatio: 0.20, Burstiness: 0.15, WorkingSetRows: 4096},
	{Name: "libq", Suite: "SPEC2006", MPKI: 28, RowLocality: 0.90, WriteRatio: 0.05, Burstiness: 0.05, WorkingSetRows: 256},
	{Name: "h264d", Suite: "MediaBench", MPKI: 35, RowLocality: 0.55, WriteRatio: 0.30, Burstiness: 0.10, WorkingSetRows: 512},
	// Remaining population (suite-typical calibrations).
	{Name: "povray", Suite: "SPEC2006", MPKI: 0.10, RowLocality: 0.60, WriteRatio: 0.20, Burstiness: 0.50, WorkingSetRows: 128},
	{Name: "namd", Suite: "SPEC2006", MPKI: 0.15, RowLocality: 0.60, WriteRatio: 0.25, Burstiness: 0.45, WorkingSetRows: 128},
	{Name: "hmmer", Suite: "SPEC2006", MPKI: 0.20, RowLocality: 0.65, WriteRatio: 0.25, Burstiness: 0.40, WorkingSetRows: 128},
	{Name: "bzip2", Suite: "SPEC2006", MPKI: 0.25, RowLocality: 0.55, WriteRatio: 0.30, Burstiness: 0.45, WorkingSetRows: 256},
	{Name: "gobmk", Suite: "SPEC2006", MPKI: 0.30, RowLocality: 0.45, WriteRatio: 0.25, Burstiness: 0.50, WorkingSetRows: 256},
	{Name: "sjeng", Suite: "SPEC2006", MPKI: 0.35, RowLocality: 0.40, WriteRatio: 0.25, Burstiness: 0.50, WorkingSetRows: 256},
	{Name: "perlbench", Suite: "SPEC2006", MPKI: 0.40, RowLocality: 0.50, WriteRatio: 0.30, Burstiness: 0.45, WorkingSetRows: 256},
	{Name: "calculix", Suite: "SPEC2006", MPKI: 0.45, RowLocality: 0.60, WriteRatio: 0.25, Burstiness: 0.35, WorkingSetRows: 256},
	{Name: "gcc", Suite: "SPEC2006", MPKI: 0.50, RowLocality: 0.50, WriteRatio: 0.30, Burstiness: 0.45, WorkingSetRows: 512},
	{Name: "gromacs", Suite: "SPEC2006", MPKI: 0.55, RowLocality: 0.60, WriteRatio: 0.25, Burstiness: 0.35, WorkingSetRows: 256},
	{Name: "tonto", Suite: "SPEC2006", MPKI: 0.65, RowLocality: 0.60, WriteRatio: 0.25, Burstiness: 0.35, WorkingSetRows: 256},
	{Name: "wrf", Suite: "SPEC2006", MPKI: 0.85, RowLocality: 0.65, WriteRatio: 0.30, Burstiness: 0.30, WorkingSetRows: 512},
	{Name: "dealII", Suite: "SPEC2006", MPKI: 1.4, RowLocality: 0.60, WriteRatio: 0.25, Burstiness: 0.35, WorkingSetRows: 512},
	{Name: "xalancbmk", Suite: "SPEC2006", MPKI: 1.9, RowLocality: 0.35, WriteRatio: 0.25, Burstiness: 0.40, WorkingSetRows: 1024},
	{Name: "omnetpp", Suite: "SPEC2006", MPKI: 2.8, RowLocality: 0.25, WriteRatio: 0.30, Burstiness: 0.35, WorkingSetRows: 2048},
	{Name: "h263e", Suite: "MediaBench", MPKI: 3.2, RowLocality: 0.65, WriteRatio: 0.30, Burstiness: 0.35, WorkingSetRows: 256},
	{Name: "tpch6", Suite: "TPC", MPKI: 6.0, RowLocality: 0.60, WriteRatio: 0.20, Burstiness: 0.30, WorkingSetRows: 2048},
	{Name: "bwaves", Suite: "SPEC2006", MPKI: 9.0, RowLocality: 0.75, WriteRatio: 0.30, Burstiness: 0.15, WorkingSetRows: 1024},
	{Name: "stream-copy", Suite: "STREAM", MPKI: 20, RowLocality: 0.90, WriteRatio: 0.45, Burstiness: 0.05, WorkingSetRows: 512},
	{Name: "stream-triad", Suite: "STREAM", MPKI: 25, RowLocality: 0.90, WriteRatio: 0.35, Burstiness: 0.05, WorkingSetRows: 512},
}

// figureOrder lists the applications on the paper's per-app figure
// axes, in its left-to-right (roughly MPKI-ascending) order.
var figureOrder = []string{
	"ycsb3", "ycsb4", "ycsb2", "ycsb1", "sphinx3", "ycsb0", "jp2d",
	"tpcc64", "jp2e", "wcount0", "cactus", "astar", "tpch17", "soplex",
	"milc", "gems", "leslie3d", "tpch2", "zeusmp", "lbm", "mcf", "libq",
	"h264d",
}

// Profiles returns the full 43-application suite (copy).
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// FigureApps returns the 23 applications shown on the paper's per-app
// figures, in figure order.
func FigureApps() []string {
	out := make([]string, len(figureOrder))
	copy(out, figureOrder)
	return out
}

// ProfileNames returns every profile name, sorted — the cmd/ drivers
// print it when an unknown application is requested.
func ProfileNames() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

// ByName looks up a profile.
func ByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// MustByName looks up a profile and panics if missing (experiment
// tables reference fixed names).
func MustByName(name string) Profile {
	p, ok := ByName(name)
	if !ok {
		panic("workload: unknown profile " + name)
	}
	return p
}

// ByClass returns the names of all profiles in class c, sorted.
func ByClass(c Class) []string {
	var out []string
	for _, p := range profiles {
		if p.Class() == c {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}
