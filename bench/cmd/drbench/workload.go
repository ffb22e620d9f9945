package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"drstrange"
	"drstrange/internal/sim"
)

const (
	workloadDir = "bench/workloads"
	goldenDir   = "bench/golden"

	// seedPool is the number of workload seeds with committed golden
	// digests. A serve workload runs with seed -seed mod seedPool, so
	// every run's output is checked against a golden whatever seed the
	// caller picks.
	seedPool = 32
)

// refPoint is the serve point a workload's model metrics and traced
// replay read: a design at one offered load, and on a classed workload
// the class whose latencies count.
type refPoint struct {
	design string
	mbps   float64
	class  string
}

var refPoints = map[string]refPoint{
	"serve-open":     {design: "drstrange", mbps: 1280},
	"serve-sharded":  {design: "drstrange", mbps: 7680},
	"serve-overload": {design: "drstrange", mbps: 5120, class: "keygen"},
}

// workloadSpec is one benchmark workload: the scenarios a rep runs, in
// file order, with the serve ones seeded.
type workloadSpec struct {
	name      string
	scenarios []drstrange.Scenario
	seeded    bool   // has serve scenarios, which take the workload seed
	seed      uint64 // the workload seed, when seeded
}

// workloadSeed maps a -seed value into the golden seed pool.
func workloadSeed(seed int64) uint64 {
	return uint64((seed%seedPool + seedPool) % seedPool)
}

// loadWorkload reads and validates a workload's scenario files and
// applies the seed to its serve scenarios.
func loadWorkload(name string, seed uint64) (*workloadSpec, error) {
	files, err := filepath.Glob(filepath.Join(workloadDir, name, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("workload %q has no scenario files in %s", name, filepath.Join(workloadDir, name))
	}
	sort.Strings(files)
	w := &workloadSpec{name: name}
	for _, f := range files {
		sc, err := drstrange.LoadScenario(f)
		if err != nil {
			return nil, err
		}
		if sc.Workers != 1 || sc.Engine != sim.EngineEvent {
			return nil, fmt.Errorf("%s: a workload scenario must pin \"workers\": 1 and \"engine\": %q", f, sim.EngineEvent)
		}
		if sc.Kind == drstrange.KindServe {
			if sc.Seed != 0 {
				return nil, fmt.Errorf("%s: serve scenarios take their seed from -seed; drop \"seed\"", f)
			}
			sc.Seed = seed
			w.seeded, w.seed = true, seed
		}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		w.scenarios = append(w.scenarios, sc)
	}
	if _, ok := refPoints[name]; w.seeded && !ok {
		return nil, fmt.Errorf("serve workload %q has no reference point", name)
	}
	return w, nil
}

// probes returns the zero-work versions of the workload's scenarios:
// serve sweeps with a one-tick window (every System is built and runs
// its warmup) and figure drivers at 100 instructions. Budgets of ten
// instructions or fewer make fig7 panic on an unknown RNG profile.
func (w *workloadSpec) probes() []drstrange.Scenario {
	out := make([]drstrange.Scenario, len(w.scenarios))
	for i, sc := range w.scenarios {
		if sc.Kind == drstrange.KindServe {
			sc.WindowTicks = 1
		} else {
			sc.Instructions = 100
		}
		out[i] = sc
	}
	return out
}

// goldenKey names the golden digest a run of w is checked against.
func (w *workloadSpec) goldenKey() string {
	if !w.seeded {
		return "-"
	}
	return strconv.FormatUint(w.seed, 10)
}

// rep is one execution of a workload's scenarios.
type rep struct {
	wall, cpu time.Duration
	alloc     uint64 // bytes allocated (MemStats.TotalAlloc delta)
	mallocs   uint64
	reports   []*drstrange.Report
	digest    string // sha256 over the reports' JSON, in scenario order
}

// runRep runs every scenario once through drstrange.Run from a cleared
// memo and a fresh heap, so no rep reuses another's simulations.
func runRep(scs []drstrange.Scenario) (rep, error) {
	sim.ResetMemo()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	var r rep
	for _, sc := range scs {
		report, err := drstrange.Run(context.Background(), sc)
		if err != nil {
			return rep{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		r.reports = append(r.reports, report)
	}
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs

	h := sha256.New()
	for _, report := range r.reports {
		data, err := report.JSON()
		if err != nil {
			return rep{}, err
		}
		h.Write(data)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goldenFile is where a workload's golden digests live: one
// "<seed> <sha256>" line per workload seed, "-" for seedless workloads.
func goldenFile(name string) string { return filepath.Join(goldenDir, name+".txt") }

func readGolden(name string) (map[string]string, error) {
	f, err := os.Open(goldenFile(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, digest, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", goldenFile(name), sc.Text())
		}
		out[key] = digest
	}
	return out, sc.Err()
}

// updateGolden recomputes a workload's golden digests: one rep per pool
// seed, or one rep for a seedless workload.
func updateGolden(name string) error {
	w, err := loadWorkload(name, 0)
	if err != nil {
		return err
	}
	seeds := 1
	if w.seeded {
		seeds = seedPool
	}
	var b strings.Builder
	for s := range seeds {
		if w, err = loadWorkload(name, uint64(s)); err != nil {
			return err
		}
		r, err := runRep(w.scenarios)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %s\n", w.goldenKey(), r.digest)
		fmt.Printf("golden %s %s %s\n", name, w.goldenKey(), r.digest)
	}
	return os.WriteFile(goldenFile(name), []byte(b.String()), 0o644)
}

// session counts the runs an invocation attempted and the ones that
// failed: an error, or output differing from the digest it must match.
type session struct {
	attempted int
	failed    int
	problems  []string
}

// check records one attempted run; want is the digest its output must
// have ("" for none). It reports whether the run succeeded.
func (s *session) check(what string, r rep, err error, want string) bool {
	s.attempted++
	switch {
	case err != nil:
		s.fail("%s: %v", what, err)
	case want != "" && r.digest != want:
		s.fail("%s: output digest %s, want %s", what, r.digest, want)
	default:
		return true
	}
	return false
}

func (s *session) fail(format string, args ...any) {
	s.failed++
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// model holds what a workload's reports say about the simulated system.
// The values are deterministic per workload seed.
type model struct {
	simTicks  float64 // Σ over serve points of warmup + window
	completed float64 // Σ over serve points of completed requests
	metrics   map[string]float64
}

// modelMetrics reads the served-model metrics (reference-design
// latencies, throughput, sheds, SLO rate) and the serve-layer counters
// out of one rep's reports. A seedless workload has no serve points and
// reports zeros.
func modelMetrics(w *workloadSpec, reports []*drstrange.Report) (model, error) {
	m := model{metrics: map[string]float64{
		"p50_ns": 0, "p99_ns": 0, "p999_ns": 0, "achieved_mbps": 0, "shed_frac": 0, "slo_mbps": 0,
		"serve.peak_outstanding": 0, "serve.recycled_frac": 0, "serve.latency_bins": 0,
		"serve.retried": 0, "serve.deadline_missed": 0, "health.trips": 0,
	}}
	ref, seeded := refPoints[w.name]
	if !seeded {
		return m, nil
	}
	var submitted, refused, topLoad float64
	foundRef := false
	for _, report := range reports {
		if report.Scenario.Kind != drstrange.KindServe {
			continue
		}
		sc := report.Scenario
		for d, ds := range report.Serve {
			fig := report.Figures[d]
			for i, pt := range ds.Points {
				m.simTicks += float64(*sc.WarmupTicks + sc.WindowTicks)
				m.completed += float64(pt.Completed)
				if sc.Designs[d] != ref.design {
					continue
				}
				row := figureRow(fig, i)
				submitted += float64(pt.Submitted)
				refused += float64(pt.Shed + pt.DeadlineMissed)
				m.metrics["serve.retried"] += float64(pt.Retried)
				m.metrics["serve.deadline_missed"] += float64(pt.DeadlineMissed)
				if pt.Health != nil {
					refused += float64(pt.Health.FailedRequests)
					m.metrics["health.trips"] += float64(pt.Health.Trips)
				}
				if pt.OfferedMbps >= topLoad {
					topLoad = pt.OfferedMbps
					m.metrics["achieved_mbps"] = row["achieved"]
				}
				if sc.ThinkTicks == 0 && row["p99ns"] <= 1000 && row["achieved"] >= 0.98*pt.OfferedMbps {
					m.metrics["slo_mbps"] = max(m.metrics["slo_mbps"], pt.OfferedMbps)
				}
				if pt.OfferedMbps != ref.mbps {
					continue
				}
				foundRef = true
				m.metrics["serve.peak_outstanding"] = float64(pt.PeakOutstanding)
				m.metrics["serve.latency_bins"] = float64(pt.LatencyBins)
				if pt.Submitted > 0 {
					m.metrics["serve.recycled_frac"] = float64(pt.RecycledRequests) / float64(pt.Submitted)
				}
				if ref.class == "" {
					m.metrics["p50_ns"], m.metrics["p99_ns"], m.metrics["p999_ns"] = row["p50ns"], row["p99ns"], row["p999ns"]
					continue
				}
				for _, c := range pt.PerClass {
					if c.Class == ref.class {
						m.metrics["p50_ns"], m.metrics["p99_ns"] = c.P50*sim.TickNanos, c.P99*sim.TickNanos
					}
				}
			}
		}
	}
	if !foundRef {
		return m, fmt.Errorf("workload %s has no %s point at %g Mb/s", w.name, ref.design, ref.mbps)
	}
	if submitted > 0 {
		m.metrics["shed_frac"] = refused / submitted
	}
	return m, nil
}

// figureRow maps a figure's column labels to row i's values.
func figureRow(f drstrange.Figure, i int) map[string]float64 {
	row := map[string]float64{}
	if i < len(f.Series) {
		for j, label := range f.Labels {
			if j < len(f.Series[i].Values) {
				row[label] = f.Series[i].Values[j]
			}
		}
	}
	return row
}

// findPoint returns design's point at load mbps across the reports, with
// its figure row.
func findPoint(reports []*drstrange.Report, design string, mbps float64) (drstrange.ServePointStats, map[string]float64, bool) {
	for _, report := range reports {
		for d, ds := range report.Serve {
			if report.Scenario.Designs[d] != design {
				continue
			}
			for i, pt := range ds.Points {
				if pt.OfferedMbps == mbps {
					return pt, figureRow(report.Figures[d], i), true
				}
			}
		}
	}
	return drstrange.ServePointStats{}, nil, false
}
