// Command drbench is the repository's benchmark. It runs each workload
// in bench/workloads through drstrange.Run, checks every output against
// the golden digests in bench/golden, and prints the metrics that
// BENCHMARK.json declares: the end-to-end ones from a timed run, the
// per-layer ones from a separate traced run (-trace 1) that profiles the
// reps, replays a reference point through the simulator's public calls
// to time each of them, and reads the layer counters.
//
// Run it from the repository root, normally through bench/run.sh, which
// builds it first:
//
//	bash bench/run.sh -workload serve-open -seed 3 -seconds 20 -trace 0
//	bash bench/run.sh -all -seed 3 -out .bench_build/setA
//	bash bench/run.sh -compare .bench_build/setA .bench_build/setB
//	bash bench/run.sh -update-golden
//
// The last line of a workload run's output is one JSON object with the
// keys correct, attempted, failed, and metrics. The exit status is 0
// only when every run's output matched.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"drstrange/internal/sim"
)

// minReps is the fewest timed reps a run makes, however short -seconds.
const minReps = 5

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the declaration of the workloads and
// metrics this command runs and prints.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadBenchmark() (*benchmarkFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%v (run drbench from the repository root)", err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bm, nil
}

// stat is one metric of a run: a summary of its samples (the median, or
// for host time the fastest sample), with their range and count.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func summarize(samples []float64) stat {
	if len(samples) == 0 {
		return stat{}
	}
	return stat{Value: median(samples), Min: slices.Min(samples), Max: slices.Max(samples), N: len(samples)}
}

// fastest summarizes host-time samples by the fastest one. Other
// tenants' load only ever slows a rep down, and a shared host's speed
// drifts over minutes: on a 2-vCPU Xeon container, per-run medians of
// wall time spread by up to 38 % across a ten-run set that crossed such a
// slow phase, per-run minima by up to 18 %.
func fastest(samples []float64) stat {
	st := summarize(samples)
	st.Value = st.Min
	return st
}

func single(v float64) stat { return stat{Value: v, Min: v, Max: v, N: 1} }

// envInfo records what a result was measured on.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
}

// result is one workload run, as written to a -out directory and read
// back by -compare.
type result struct {
	Workload     string          `json:"workload"`
	Seed         int64           `json:"seed"`
	WorkloadSeed uint64          `json:"workload_seed"`
	Trace        bool            `json:"trace"`
	Seconds      int             `json:"seconds"`
	Env          envInfo         `json:"env"`
	Correct      bool            `json:"correct"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	Problems     []string        `json:"problems,omitempty"`
	Metrics      map[string]stat `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Int64("seed", 3, "workload seed; serve workloads run with seed mod 32 (7 is held out for claim checks)")
		seconds   = flag.Int("seconds", 20, "seconds of timed reps (at least 5 reps run)")
		trace     = flag.Int("trace", 0, "1 runs the traced measurement and prints the per-layer metrics")
		all       = flag.Bool("all", false, "run every workload, each in a fresh process")
		out       = flag.String("out", "", "directory to write each workload's result file into")
		compareTo = flag.Bool("compare", false, "compare two directories of result files: -compare setA setB")
		golden    = flag.Bool("update-golden", false, "recompute the golden digests (all workloads, or -workload)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1, not %d", *trace))
	}
	bm, err := loadBenchmark()
	if err != nil {
		fatal(err)
	}
	if *compareTo {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result directories"))
		}
		if err := compare(os.Stdout, bm, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	// Zero scenario fields defer to the DRSTRANGE_* knobs, so a set knob
	// would silently change the program being measured.
	if knobs := sim.EnvKnobSnapshot(); len(knobs) > 0 {
		var set []string
		for k, v := range knobs {
			set = append(set, k+"="+v)
		}
		sort.Strings(set)
		fatal(fmt.Errorf("refusing to measure with %s set", strings.Join(set, " ")))
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	names := []string{*name}
	if *name == "" {
		names = nil
		for _, w := range bm.Workloads {
			names = append(names, w.Name)
		}
	}
	switch {
	case *golden:
		for _, n := range names {
			if err := updateGolden(n); err != nil {
				fatal(err)
			}
		}
	case *all:
		os.Exit(runAll(names, *seed, *seconds, *trace, *out))
	case *name == "":
		fatal(fmt.Errorf("name a -workload, or use -all, -compare, or -update-golden"))
	default:
		os.Exit(runWorkload(bm, *name, *seed, *seconds, *trace == 1, *out))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drbench:", err)
	os.Exit(2)
}

// runAll runs each workload in a fresh process and returns the exit
// status: 0 only when every run passed.
func runAll(names []string, seed int64, seconds, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	status := 0
	for _, n := range names {
		cmd := exec.Command(exe, "-workload", n, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "drbench: workload %s: %v\n", n, err)
			status = 1
		}
	}
	return status
}

// runWorkload measures one workload and prints its result; it returns
// the exit status.
func runWorkload(bm *benchmarkFile, name string, seed int64, seconds int, trace bool, out string) int {
	w, err := loadWorkload(name, workloadSeed(seed))
	if err != nil {
		fatal(err)
	}
	goldens, err := readGolden(name)
	if err != nil {
		fatal(err)
	}
	want, ok := goldens[w.goldenKey()]
	if !ok {
		fatal(fmt.Errorf("no golden digest for %s seed %s; run drbench -update-golden", name, w.goldenKey()))
	}
	res := result{
		Workload: name, Seed: seed, WorkloadSeed: w.seed, Trace: trace, Seconds: seconds,
		Env: envInfo{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Commit:     gitCommit(),
		},
	}
	fmt.Printf("drbench: workload=%s seed=%d workload_seed=%d trace=%t go=%s gomaxprocs=%d nproc=%d commit=%s\n",
		name, seed, w.seed, trace, res.Env.GoVersion, res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.Commit)

	s := &session{}
	var vals map[string]stat
	if trace {
		vals, err = tracedRun(w, s, want, time.Duration(seconds)*time.Second)
	} else {
		vals, err = timedRun(w, s, want, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		s.fail("%v", err)
	}
	decls := bm.EndToEnd
	if trace {
		decls = bm.PerLayer
	}
	for _, d := range slices.Concat(bm.EndToEnd, bm.PerLayer) {
		if v, ok := vals[d.Name]; ok {
			v.Unit = d.Unit
			vals[d.Name] = v
		}
	}
	line := map[string]map[string]any{}
	measured := s.failed == 0
	for _, d := range decls {
		v, ok := vals[d.Name]
		if !ok && measured {
			s.fail("metric %s was not measured", d.Name)
		}
		line[d.Name] = map[string]any{"value": v.Value, "unit": d.Unit}
		fmt.Printf("  %-34s %14.6g %-9s [%g, %g] n=%d\n", d.Name, v.Value, d.Unit, v.Min, v.Max, v.N)
	}
	for _, p := range s.problems {
		fmt.Println("  FAILED:", p)
	}

	res.Correct, res.Attempted, res.Failed, res.Problems, res.Metrics = s.failed == 0, s.attempted, s.failed, s.problems, vals
	if out != "" {
		if err := writeResult(out, res); err != nil {
			fatal(err)
		}
	}
	data, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": max(res.Attempted, 1), "failed": res.Failed, "metrics": line,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// timedRun is the untraced measurement: an untimed warm-up rep, then
// timed reps, each preceded by two set-up probes, until the seconds are
// spent (at least minReps reps).
func timedRun(w *workloadSpec, s *session, want string, seconds time.Duration) (map[string]stat, error) {
	warm, err := runRep(w.scenarios)
	if !s.check("warm-up rep", warm, err, want) {
		return nil, nil
	}
	m, err := modelMetrics(w, warm.reports)
	if err != nil {
		return nil, err
	}
	probes := w.probes()
	probeWant := ""
	var reps []rep
	var setup []float64
	start := time.Now()
	for s.failed == 0 && (len(reps) < minReps || time.Since(start)+nextRep(reps, setup) <= seconds) {
		for range 2 {
			p, err := runRep(probes)
			if s.check("set-up probe", p, err, probeWant) {
				probeWant = p.digest
				setup = append(setup, p.wall.Seconds())
			}
		}
		r, err := runRep(w.scenarios)
		if s.check("timed rep", r, err, want) {
			reps = append(reps, r)
		}
	}
	wall := fastest(each(reps, func(r rep) float64 { return r.wall.Seconds() }))
	vals := map[string]stat{
		"setup_s":          summarize(setup),
		"wall_s":           wall,
		"cpu_s":            fastest(each(reps, func(r rep) float64 { return r.cpu.Seconds() })),
		"alloc_mb":         summarize(each(reps, func(r rep) float64 { return float64(r.alloc) / 1e6 })),
		"allocs_k":         summarize(each(reps, func(r rep) float64 { return float64(r.mallocs) / 1e3 })),
		"sim_ticks_per_s":  single(m.simTicks / wall.Value),
		"served_req_per_s": single(m.completed / wall.Value),
	}
	for k, v := range m.metrics {
		vals[k] = single(v)
	}
	return vals, nil
}

// nextRep estimates how long one more probe-probe-rep round takes.
func nextRep(reps []rep, setup []float64) time.Duration {
	if len(reps) == 0 {
		return 0
	}
	est := median(each(reps, func(r rep) float64 { return r.wall.Seconds() }))
	if len(setup) > 0 {
		est += 2 * median(setup)
	}
	return time.Duration(est * float64(time.Second))
}

// tracedRun is the per-layer measurement: a warm-up rep, two untraced
// reps as the overhead baseline, profiled reps folded by layer, then the
// reference-point replay for spans and counters.
func tracedRun(w *workloadSpec, s *session, want string, seconds time.Duration) (map[string]stat, error) {
	warm, err := runRep(w.scenarios)
	if !s.check("warm-up rep", warm, err, want) {
		return nil, nil
	}
	m, err := modelMetrics(w, warm.reports)
	if err != nil {
		return nil, err
	}
	var base []float64
	for range 2 {
		r, err := runRep(w.scenarios)
		if !s.check("baseline rep", r, err, want) {
			return nil, nil
		}
		base = append(base, r.wall.Seconds())
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(".bench_build", "drbench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	prof, err := profileReps(w, s, want, seconds, f)
	if err != nil || s.failed > 0 {
		return nil, err
	}
	shares, samples, err := foldProfile(f.Name())
	if err != nil {
		return nil, err
	}
	if samples < 1000 {
		s.fail("profile holds %d samples, want at least 1000", samples)
	}

	vals := map[string]stat{
		"trace.samples":    single(float64(samples)),
		"trace.overhead_x": single(slices.Min(each(prof, func(r rep) float64 { return r.wall.Seconds() })) / slices.Min(base)),
		"sim_ticks_per_s":  single(m.simTicks / slices.Min(base)),
		"served_req_per_s": single(m.completed / slices.Min(base)),
	}
	for _, l := range layers {
		vals["layer."+l+".self_share"] = single(shares[l])
	}
	replay, err := replayMetrics(w, warm.reports, s)
	if err != nil {
		return nil, err
	}
	for k, v := range replay {
		vals[k] = single(v)
	}
	for k, v := range m.metrics {
		vals[k] = single(v)
	}
	return vals, nil
}

func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// writeResult stores a result as <dir>/<workload>-seed<seed>-<unix nanos>.json.
func writeResult(dir string, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	file := fmt.Sprintf("%s-seed%d-%d.json", res.Workload, res.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, file), append(data, '\n'), 0o644)
}

// gitCommit reads the checked-out commit from .git without running git
// (which would search the parent directories), or "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
