// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable benchmark snapshot, so the perf trajectory of the
// figure benchmarks (ns/op, headline metric, allocs/op) can be compared
// across commits without scraping logs.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x . | go run ./cmd/benchjson
//	... | go run ./cmd/benchjson -out BENCH_custom.json
//	go run ./cmd/benchjson -compare BENCH_old.json BENCH_new.json
//
// Every input line is passed through to stdout unchanged, so piping
// through benchjson costs nothing in CI logs. The default output file
// is BENCH_<UTC timestamp>.json in the current directory.
//
// The snapshot carries a serve_memory headline — B/op and allocs/op of
// the ServeLoadSaturated benchmark (the streaming serve pipeline at its
// worst-case point) — so serve-path memory regressions surface at the
// top of the file, not three screens into the benchmark list. When the
// input also contains ServeLoadHealthClean (the same point with entropy
// health monitoring on over a clean stream), the snapshot additionally
// carries a health_overhead headline — the monitored/unmonitored CPU
// ratio, measured pairwise within the benchmark so host noise cancels
// — gated at snapshot time by -healthmax (default 1.15). The default
// sits deliberately outside shared-runner noise: the quiet-host
// reading is 2-3%, but co-tenant cache pressure can inflate the
// honest paired measurement past 10%, so the absolute gate only
// catches gross regressions, and the committed baseline pins the
// measured value tightly through the health_overhead:ratio compare
// gate below.
//
// When the input contains ServeLoadClosedLoop (the closed-loop
// overload benchmark), the snapshot carries a shed_overhead headline —
// the classed+admission / plain open-loop CPU ratio it measures
// pairwise inside the benchmark, at a load where admission never sheds
// — gated at snapshot time by -shedmax (default 1.15). Like -healthmax,
// the default sits outside host noise: the paired reading is 1.04-1.06
// on a quiet 2-CPU host with single quads spreading 0.94-1.10, so the
// absolute gate catches gross regressions while the committed baseline
// pins the measured value through the shed_overhead:ratio compare gate.
//
// When the input contains the ServeSweepWarm/ServeSweepCold pair (the
// same offered-load sweep with checkpointed warm starts on and off),
// the snapshot carries a sweep_walltime headline — the warm/cold ns/op
// ratio, again intra-run so host noise cancels — gated at snapshot time
// by -warmmax (default 1.0: forking load points from a warmed image
// must never be slower than re-running the warmup per point).
//
// -compare diffs two snapshots benchmark by benchmark (ns/op, B/op,
// allocs/op, headline) and is what `make bench-compare` runs. Snapshot
// headlines with a ratio (sweep_walltime) join the diff as pseudo-rows,
// so they can be gated like any benchmark:metric pair. With -delta the
// diff is also written as JSON (the CI artifact), including explicit
// added/removed entries for benchmarks present in only one snapshot,
// and -gate turns selected benchmark:metric pairs into a regression
// gate: any gated ratio above -maxratio (default 1.25) fails the
// comparison. Ungated metrics are informational only — micro-benchmark
// noise on a shared CI runner must not block merges, but a >25%
// regression on the serve-memory or tail-latency headlines should.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"drstrange/internal/sim"
)

// benchResult is one benchmark's parsed measurements. Metrics maps unit
// name to value: ns/op always, plus headline, B/op, and allocs/op when
// the benchmark reports them.
type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// serveMemory is the serve-path memory headline: the saturated point's
// per-sweep heap cost, extracted from BenchmarkServeLoadSaturated.
type serveMemory struct {
	Benchmark   string  `json:"benchmark"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// healthOverhead is the clean-path health-monitoring headline: the
// walltime ratio of the monitored saturated point over the unmonitored
// one. Preferred source is the ServeLoadHealthClean benchmark's own
// overhead_x metric (monitored and unmonitored sweeps interleaved
// back to back inside one benchmark, so host drift across the suite
// cancels); absent that, the ns/op ratio of the two benchmarks within
// the snapshot.
type healthOverhead struct {
	CleanBench string  `json:"clean_bench"`
	BaseBench  string  `json:"base_bench"`
	Ratio      float64 `json:"ratio"`
}

// shedOverhead is the overload-robustness headline: the walltime ratio
// of the classed+admission open-loop sweep over the plain one at a load
// where nothing sheds, taken from the ServeLoadClosedLoop benchmark's
// own paired shed_overhead_x metric (the two sweeps interleaved in
// mirrored quads inside one benchmark, so host drift cancels). It
// prices what the request-class and admission machinery costs the
// clean open-loop hot path; -shedmax gates it at snapshot time (default
// 1.15).
type shedOverhead struct {
	ClosedBench string  `json:"closed_bench"`
	BaseBench   string  `json:"base_bench"`
	Ratio       float64 `json:"ratio"`
}

// sweepWalltime is the checkpointed-warm-start headline: the ns/op
// ratio of the warm offered-load sweep (every point forked from one
// snapshotted image) over the cold sweep (every point re-runs the
// warmup), computed within a single snapshot so host noise cancels.
// Below 1 means warm starts pay off; -warmmax gates it at snapshot
// time.
type sweepWalltime struct {
	WarmBench string  `json:"warm_bench"`
	ColdBench string  `json:"cold_bench"`
	Ratio     float64 `json:"ratio"`
}

// snapshot is the emitted file: the benchmark list plus enough context
// to compare like with like across commits.
type snapshot struct {
	GeneratedAt    string            `json:"generated_at"`
	Env            map[string]string `json:"env"`
	ServeMemory    *serveMemory      `json:"serve_memory,omitempty"`
	HealthOverhead *healthOverhead   `json:"health_overhead,omitempty"`
	ShedOverhead   *shedOverhead     `json:"shed_overhead,omitempty"`
	SweepWalltime  *sweepWalltime    `json:"sweep_walltime,omitempty"`
	Benchmarks     []benchResult     `json:"benchmarks"`
}

// serveMemoryBench names the benchmark whose B/op + allocs/op become
// the snapshot's serve_memory headline.
const serveMemoryBench = "ServeLoadSaturated"

// healthOverheadBench names the health-monitored twin of
// serveMemoryBench. Its own paired overhead_x metric (the monitored /
// unmonitored user-CPU ratio it measures internally) is the
// health_overhead headline, gated by -healthmax at snapshot time; when
// an older benchmark format has no overhead_x, the cross-benchmark
// ns/op ratio against serveMemoryBench is the fallback.
const healthOverheadBench = "ServeLoadHealthClean"

// shedOverheadBench names the closed-loop overload benchmark; its
// paired shed_overhead_x metric (classed+admission open-loop sweep /
// plain sweep, measured intra-benchmark) is the shed_overhead headline,
// gated by -shedmax at snapshot time.
const shedOverheadBench = "ServeLoadClosedLoop"

// sweepWarmBench/sweepColdBench name the warm-start sweep pair; their
// ns/op ratio is the sweep_walltime headline, gated by -warmmax at
// snapshot time.
const (
	sweepWarmBench = "ServeSweepWarm"
	sweepColdBench = "ServeSweepCold"
)

func main() {
	out := flag.String("out", "", "output path (default BENCH_<utc timestamp>.json)")
	compare := flag.Bool("compare", false, "compare two snapshot files (args: old.json new.json) instead of reading bench output")
	delta := flag.String("delta", "", "with -compare, also write the diff as JSON to this path (the CI artifact)")
	maxRatio := flag.Float64("maxratio", 1.25, "with -compare -gate, fail when a gated new/old ratio exceeds this")
	gate := flag.String("gate", "", "with -compare, comma-separated Benchmark:metric pairs to enforce (e.g. ServeLoadSaturated:B/op,ServeLoad:headline)")
	healthMax := flag.Float64("healthmax", 1.15, "fail snapshot creation when the clean-path health-monitoring CPU overhead exceeds this ratio (set outside shared-runner noise; quiet hosts measure 2-3%)")
	warmMax := flag.Float64("warmmax", 1.0, "fail snapshot creation when the warm-start sweep walltime ratio (ServeSweepWarm / ServeSweepCold ns/op) exceeds this")
	shedMax := flag.Float64("shedmax", 1.15, "fail snapshot creation when the class/admission machinery's clean open-loop CPU overhead exceeds this ratio (set outside host noise; quiet hosts measure 4-6%)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two snapshot files: old.json new.json")
			os.Exit(2)
		}
		gates := map[string]bool{}
		for _, g := range strings.Split(*gate, ",") {
			if g = strings.TrimSpace(g); g != "" {
				gates[g] = true
			}
		}
		violations, err := compareSnapshots(flag.Arg(0), flag.Arg(1), *delta, gates, *maxRatio)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d gated metric(s) regressed beyond %.2fx\n", violations, *maxRatio)
			os.Exit(1)
		}
		return
	}

	// The knob provenance comes from the sim package's central
	// accessor, not a local os.Getenv loop: internal/sim/env.go owns
	// every DRSTRANGE_ read (the envknob analyzer enforces it), and the
	// snapshot automatically tracks newly added knobs.
	snap := snapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Env:         sim.EnvKnobSnapshot(),
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if b, ok := parseBenchLine(line); ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	var baseNs, cleanNs, pairedOverhead, pairedShed, warmNs, coldNs float64
	for _, b := range snap.Benchmarks {
		if b.Name == shedOverheadBench {
			pairedShed = b.Metrics["shed_overhead_x"]
		}
		if b.Name == serveMemoryBench {
			baseNs = b.Metrics["ns/op"]
			snap.ServeMemory = &serveMemory{
				Benchmark:   b.Name,
				BytesPerOp:  b.Metrics["B/op"],
				AllocsPerOp: b.Metrics["allocs/op"],
			}
		}
		if b.Name == healthOverheadBench {
			cleanNs = b.Metrics["ns/op"]
			pairedOverhead = b.Metrics["overhead_x"]
		}
		if b.Name == sweepWarmBench {
			warmNs = b.Metrics["ns/op"]
		}
		if b.Name == sweepColdBench {
			coldNs = b.Metrics["ns/op"]
		}
	}
	switch {
	case pairedOverhead > 0:
		snap.HealthOverhead = &healthOverhead{
			CleanBench: healthOverheadBench,
			BaseBench:  serveMemoryBench,
			Ratio:      pairedOverhead,
		}
	case baseNs > 0 && cleanNs > 0:
		snap.HealthOverhead = &healthOverhead{
			CleanBench: healthOverheadBench,
			BaseBench:  serveMemoryBench,
			Ratio:      cleanNs / baseNs,
		}
	}
	if pairedShed > 0 {
		snap.ShedOverhead = &shedOverhead{
			ClosedBench: shedOverheadBench,
			BaseBench:   serveMemoryBench,
			Ratio:       pairedShed,
		}
	}
	if warmNs > 0 && coldNs > 0 {
		snap.SweepWalltime = &sweepWalltime{
			WarmBench: sweepWarmBench,
			ColdBench: sweepColdBench,
			Ratio:     warmNs / coldNs,
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("20060102T150405Z") + ".json"
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))
	if h := snap.HealthOverhead; h != nil {
		fmt.Fprintf(os.Stderr, "benchjson: clean-path health overhead %.3fx (%s / %s, gate %.2fx)\n",
			h.Ratio, h.CleanBench, h.BaseBench, *healthMax)
		if h.Ratio > *healthMax {
			fmt.Fprintf(os.Stderr, "benchjson: health-monitoring overhead exceeds the %.2fx clean-path gate\n", *healthMax)
			os.Exit(1)
		}
	}
	if s := snap.ShedOverhead; s != nil {
		fmt.Fprintf(os.Stderr, "benchjson: clean open-loop shed-path overhead %.3fx (%s / %s, gate %.2fx)\n",
			s.Ratio, s.ClosedBench, s.BaseBench, *shedMax)
		if s.Ratio > *shedMax {
			fmt.Fprintf(os.Stderr, "benchjson: class/admission machinery exceeds the %.2fx clean open-loop gate\n", *shedMax)
			os.Exit(1)
		}
	}
	if w := snap.SweepWalltime; w != nil {
		fmt.Fprintf(os.Stderr, "benchjson: warm-start sweep walltime %.3fx (%s / %s, gate %.2fx)\n",
			w.Ratio, w.WarmBench, w.ColdBench, *warmMax)
		if w.Ratio > *warmMax {
			fmt.Fprintf(os.Stderr, "benchjson: warm-start sweep is slower than the %.2fx cold-sweep gate allows\n", *warmMax)
			os.Exit(1)
		}
	}
}

// loadSnapshot reads one emitted BENCH_*.json file.
func loadSnapshot(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareMetrics are the per-benchmark columns of the -compare table,
// in print order.
var compareMetrics = []string{"ns/op", "B/op", "allocs/op", "headline"}

// deltaEntry is one benchmark:metric row of the -delta JSON artifact.
// Benchmarks present in only one snapshot get a single row with Status
// "added" or "removed" and no metric — explicit, so a rename or a
// dropped benchmark is visible in the artifact instead of silently
// missing from it.
type deltaEntry struct {
	Benchmark string  `json:"benchmark"`
	Metric    string  `json:"metric,omitempty"`
	Old       float64 `json:"old"`
	New       float64 `json:"new"`
	Ratio     float64 `json:"ratio"`
	Gated     bool    `json:"gated,omitempty"`
	Violation bool    `json:"violation,omitempty"`
	Status    string  `json:"status,omitempty"`
}

// deltaFile is the -delta artifact: the full diff plus the gate verdict
// in one machine-readable place.
type deltaFile struct {
	OldPath    string       `json:"old"`
	NewPath    string       `json:"new"`
	MaxRatio   float64      `json:"max_ratio"`
	Violations int          `json:"violations"`
	Entries    []deltaEntry `json:"entries"`
}

// compareSnapshots prints a benchmark-by-benchmark diff of two
// snapshots: old value, new value, and the ratio new/old for each
// metric both sides report, flagging gated metrics whose ratio exceeds
// maxRatio. Benchmarks present on only one side are listed at the end
// so renames and additions are visible. It returns the number of gate
// violations (the caller turns those into a nonzero exit).
func compareSnapshots(oldPath, newPath, deltaPath string, gates map[string]bool, maxRatio float64) (int, error) {
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return 0, err
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return 0, err
	}
	oldBy := map[string]benchResult{}
	for _, b := range oldSnap.Benchmarks {
		oldBy[b.Name] = b
	}
	df := deltaFile{OldPath: oldPath, NewPath: newPath, MaxRatio: maxRatio}
	fmt.Printf("%-28s %-10s %14s %14s %8s\n", "benchmark", "metric", "old", "new", "ratio")
	seen := map[string]bool{}
	for _, nb := range newSnap.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			continue
		}
		seen[nb.Name] = true
		for _, m := range compareMetrics {
			ov, hasOld := ob.Metrics[m]
			nv, hasNew := nb.Metrics[m]
			if !hasOld || !hasNew {
				continue
			}
			ratio := math.NaN()
			if ov != 0 {
				ratio = nv / ov
			}
			e := deltaEntry{Benchmark: nb.Name, Metric: m, Old: ov, New: nv, Ratio: ratio,
				Gated: gates[nb.Name+":"+m]}
			// An old value of 0 yields no meaningful ratio; JSON cannot
			// carry NaN, so the artifact stores 0 ("no ratio") and the
			// gate never fires on it.
			if math.IsNaN(e.Ratio) {
				e.Ratio = 0
			}
			e.Violation = e.Gated && ratio > maxRatio
			if e.Violation {
				df.Violations++
			}
			df.Entries = append(df.Entries, e)
			mark := ""
			if e.Gated {
				mark = "  [gate]"
				if e.Violation {
					mark = "  [gate FAIL]"
				}
			}
			fmt.Printf("%-28s %-10s %14.1f %14.1f %7.3fx%s\n", nb.Name, m, ov, nv, ratio, mark)
		}
	}
	// Snapshot-level ratio headlines join the diff as pseudo-rows so
	// they can be gated like any benchmark:metric pair (BENCH_GATES
	// lists sweep_walltime:ratio and health_overhead:ratio).
	type headlineRow struct {
		name   string
		ov, nv float64
	}
	var rows []headlineRow
	if oldSnap.SweepWalltime != nil && newSnap.SweepWalltime != nil {
		rows = append(rows, headlineRow{"sweep_walltime", oldSnap.SweepWalltime.Ratio, newSnap.SweepWalltime.Ratio})
	}
	if oldSnap.HealthOverhead != nil && newSnap.HealthOverhead != nil {
		rows = append(rows, headlineRow{"health_overhead", oldSnap.HealthOverhead.Ratio, newSnap.HealthOverhead.Ratio})
	}
	if oldSnap.ShedOverhead != nil && newSnap.ShedOverhead != nil {
		rows = append(rows, headlineRow{"shed_overhead", oldSnap.ShedOverhead.Ratio, newSnap.ShedOverhead.Ratio})
	}
	for _, r := range rows {
		e := deltaEntry{Benchmark: r.name, Metric: "ratio", Old: r.ov, New: r.nv,
			Gated: gates[r.name+":ratio"]}
		if r.ov != 0 {
			e.Ratio = r.nv / r.ov
		}
		e.Violation = e.Gated && e.Ratio > maxRatio
		if e.Violation {
			df.Violations++
		}
		df.Entries = append(df.Entries, e)
		mark := ""
		if e.Gated {
			mark = "  [gate]"
			if e.Violation {
				mark = "  [gate FAIL]"
			}
		}
		fmt.Printf("%-28s %-10s %14.3f %14.3f %7.3fx%s\n", e.Benchmark, e.Metric, r.ov, r.nv, e.Ratio, mark)
	}
	for _, b := range newSnap.Benchmarks {
		if _, inOld := oldBy[b.Name]; !inOld {
			fmt.Printf("%-28s only in %s\n", b.Name, newPath)
			df.Entries = append(df.Entries, deltaEntry{Benchmark: b.Name, New: b.Metrics["ns/op"], Status: "added"})
		}
	}
	for _, b := range oldSnap.Benchmarks {
		if !seen[b.Name] {
			fmt.Printf("%-28s only in %s\n", b.Name, oldPath)
			df.Entries = append(df.Entries, deltaEntry{Benchmark: b.Name, Old: b.Metrics["ns/op"], Status: "removed"})
		}
	}
	if deltaPath != "" {
		data, err := json.MarshalIndent(df, "", "  ")
		if err != nil {
			return df.Violations, err
		}
		if err := os.WriteFile(deltaPath, append(data, '\n'), 0o644); err != nil {
			return df.Violations, err
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote delta %s (%d entries, %d violations)\n",
			deltaPath, len(df.Entries), df.Violations)
	}
	return df.Violations, nil
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkFigure1-4   1   66928450 ns/op   3.301 headline   0 B/op   12 allocs/op
//
// The name keeps its Benchmark prefix stripped and its -GOMAXPROCS
// suffix removed; every value/unit pair after the iteration count lands
// in Metrics.
func parseBenchLine(line string) (benchResult, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchResult{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := benchResult{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
