package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"drstrange"
	"drstrange/internal/sim"
	"drstrange/internal/workload"
)

const (
	// profileMinCPU keeps the profiled phase going until it holds at least
	// 1100 samples at the default 100 Hz rate, whatever -seconds says.
	profileMinCPU = 11 * time.Second
	// observeWords is the stream length span.observe_ns_per_word times.
	observeWords = 1 << 20
)

// traceRefConfig is the closed-loop System the traced paper-figures run
// replays: one of Figure 7/12/14's 16-core high-intensity mixes under
// DR-STRaNGe at the workload's instruction budget.
func traceRefConfig(instructions int64) sim.RunConfig {
	return sim.RunConfig{
		Design:       sim.DesignDRStrange,
		Mix:          workload.MultiCoreGroups(16)["H"][0],
		Instructions: instructions,
	}
}

// injectRefConfig is the serve point whose injection-port spans the
// paper-figures trace reports: its own path never injects, so the
// spans come from serve-open's reference configuration at a short
// window.
func injectRefConfig() sim.ServeConfig {
	return sim.ServeConfig{
		Design:      sim.DesignDRStrange,
		Background:  workload.Mix{Name: "mcf", Apps: []string{"mcf"}},
		Clients:     8,
		Admission:   sim.AdmissionNone,
		WindowTicks: 200_000,
		Seed:        3,
		Shards:      1,
		Router:      sim.RouterRoundRobin,
		Health:      "off",
		Warm:        "off",
	}
}

// profileReps runs reps under the CPU profiler until both seconds of
// wall time and profileMinCPU of CPU time have passed, writing the
// profile to f, which it closes.
func profileReps(w *workloadSpec, s *session, want string, seconds time.Duration, f *os.File) ([]rep, error) {
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	var reps []rep
	start, c0 := time.Now(), cpuTime()
	for time.Since(start) < seconds || cpuTime()-c0 < profileMinCPU {
		r, err := runRep(w.scenarios)
		if !s.check("profiled rep", r, err, want) {
			break
		}
		reps = append(reps, r)
	}
	pprof.StopCPUProfile()
	return reps, f.Close()
}

// foldProfile folds a CPU profile's self time by layer through
// `go tool pprof -top -files`. It returns each layer's share of the
// samples and the sample count.
func foldProfile(path string) (map[string]float64, int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-files", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	ms := map[string]float64{}
	var total float64
	table := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !table {
			table = len(fields) == 5 && fields[0] == "flat" && fields[4] == "cum%"
			continue
		}
		if len(fields) < 5 {
			continue
		}
		flat, err := parseMillis(fields[0])
		if err != nil {
			return nil, 0, err
		}
		// Frames of the simulator module, a replaced dependency of the
		// bench module, carry its version: "drstrange@v0.0.0/internal/...".
		file := strings.TrimSuffix(strings.Join(fields[5:], " "), " (inline)")
		if mod, rest, ok := strings.Cut(file, "/"); ok && strings.HasPrefix(mod, "drstrange@") {
			file = "drstrange/" + rest
		}
		layer := layerOf(file)
		if layer == "" {
			return nil, 0, fmt.Errorf("profile file %s has no layer", file)
		}
		ms[layer] += flat
		total += flat
	}
	if !table || total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof printed no samples:\n%s", out)
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = ms[l] / total
	}
	return shares, int64(total/10 + 0.5), nil // 100 Hz: one sample per 10 ms
}

// parseMillis reads a pprof -unit=ms value ("1230ms", "0").
func parseMillis(v string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(v, "ms"), 64)
}

// replayMetrics replays the workload's reference point and reads the
// spans and layer counters off it. On serve workloads the replay must
// reproduce the reference point of the reports exactly.
func replayMetrics(w *workloadSpec, reports []*drstrange.Report, s *session) (map[string]float64, error) {
	var pr, inj *pointRun
	var err error
	if ref, ok := refPoints[w.name]; ok {
		cfg, err := serveConfig(w.scenarios[0], ref.design)
		if err != nil {
			return nil, err
		}
		if pr, err = replayPoint(cfg, ref.mbps); err != nil {
			return nil, err
		}
		inj = pr
		s.attempted++
		pt, row, ok := findPoint(reports, ref.design, ref.mbps)
		switch {
		case !ok:
			s.fail("replay: no %s point at %g Mb/s in the report", ref.design, ref.mbps)
		case pr.submitted != pt.Submitted || pr.completed != pt.Completed || pr.p99Ticks*sim.TickNanos != row["p99ns"]:
			s.fail("replay: submitted/completed/p99 %d/%d/%gns, report %d/%d/%gns",
				pr.submitted, pr.completed, pr.p99Ticks*sim.TickNanos, pt.Submitted, pt.Completed, row["p99ns"])
		}
	} else {
		s.attempted++
		if pr, err = replayTrace(traceRefConfig(w.scenarios[0].Instructions)); err != nil {
			s.fail("replay: %v", err)
			return nil, err
		}
		if inj, err = replayPoint(injectRefConfig(), 1280); err != nil {
			return nil, err
		}
	}

	snap, restore := snapshotSpans(pr.sys)
	res := pr.sys.Result()
	ctrl, counts := res.Ctrl, res.Counts
	routedMax, routedSum := 0.0, 0.0
	shards := pr.sys.ShardStats()
	for _, sh := range shards {
		routedMax = max(routedMax, float64(sh.Routed))
		routedSum += float64(sh.Routed)
	}
	routedRatio := 1.0
	if routedSum > 0 {
		routedRatio = routedMax / (routedSum / float64(len(shards)))
	}
	activeFrac := 0.0
	if counts.TotalChannelTicks > 0 {
		activeFrac = float64(counts.ActiveTicks) / float64(counts.TotalChannelTicks)
	}
	return map[string]float64{
		"span.new_system_us":           us(pr.newSystem),
		"span.step_ns_per_tick":        per(pr.step, res.TotalTicks),
		"span.inject_ns_per_req":       per(inj.inject, inj.requests),
		"span.arrivals_ns_per_req":     per(inj.arrivals, inj.requests),
		"span.hist_add_ns":             per(inj.histAdd, inj.completed),
		"span.snapshot_us":             us(snap),
		"span.restore_us":              us(restore),
		"span.observe_ns_per_word":     per(observeSpan(observeWords), observeWords),
		"memctrl.reads_served":         float64(ctrl.ReadsServed),
		"memctrl.writes_served":        float64(ctrl.WritesServed),
		"memctrl.rng_served":           float64(ctrl.RNGServed),
		"memctrl.rng_from_buffer":      float64(ctrl.RNGFromBuffer),
		"memctrl.rng_rounds":           float64(ctrl.RNGRounds),
		"memctrl.mode_switches":        float64(ctrl.ModeSwitches),
		"memctrl.ticks_rng_mode":       float64(ctrl.TicksRNGMode),
		"memctrl.starvation_overrides": float64(ctrl.StarvationOverrides),
		"dram.acts":                    float64(counts.ACTs),
		"dram.rds":                     float64(counts.RDs),
		"dram.wrs":                     float64(counts.WRs),
		"dram.refs":                    float64(counts.REFs),
		"dram.active_frac":             activeFrac,
		"core.pred_accuracy":           ctrl.PredictorAccuracy(),
		"core.buffer_hit_rate":         ctrl.BufferServeRate(),
		"router.routed_max_over_mean":  routedRatio,
	}, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per is d in nanoseconds per unit of n (0 when n is 0).
func per(d time.Duration, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
