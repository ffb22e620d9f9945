package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"drstrange/internal/sim"
)

// The tests run from the repository root, where drbench runs.
func TestMain(m *testing.M) {
	if err := os.Chdir("../../.."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func mustBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	bm, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// Every workload directory is declared, every declared workload loads
// (its files parse, validate, and pin workers and engine), and its
// golden digests cover every seed a run can map to.
func TestWorkloadsMatchBenchmark(t *testing.T) {
	bm := mustBenchmark(t)
	var declared []string
	for _, w := range bm.Workloads {
		declared = append(declared, w.Name)
	}
	entries, err := os.ReadDir(workloadDir)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		dirs = append(dirs, e.Name())
	}
	if !slices.Equal(slices.Sorted(slices.Values(declared)), dirs) {
		t.Fatalf("BENCHMARK.json declares workloads %v; %s holds %v", declared, workloadDir, dirs)
	}
	for _, name := range declared {
		w, err := loadWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := readGolden(name)
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{"-"}
		if w.seeded {
			keys = nil
			for s := range seedPool {
				keys = append(keys, strconv.Itoa(s))
			}
		}
		for _, k := range keys {
			if len(golden[k]) != 64 {
				t.Errorf("%s: no golden digest for seed %s", name, k)
			}
		}
		if len(golden) != len(keys) {
			t.Errorf("%s: %d golden digests, want %d", name, len(golden), len(keys))
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Declared names are well formed and unique, and each run mode measures
// exactly the metrics it must print, plus only other declared ones.
func TestMetricNames(t *testing.T) {
	bm := mustBenchmark(t)
	seen := map[string]bool{}
	for _, d := range slices.Concat(bm.EndToEnd, bm.PerLayer) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range bm.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
	}
	if testing.Short() {
		t.Skip("measures two short runs")
	}

	w, err := loadWorkload("serve-open", 3)
	if err != nil {
		t.Fatal(err)
	}
	w.scenarios[0].WindowTicks = 20_000
	for _, traced := range []bool{false, true} {
		s := &session{}
		var vals map[string]stat
		var err error
		if traced {
			vals, err = tracedRun(w, s, "", 0)
		} else {
			vals, err = timedRun(w, s, "", 0)
		}
		if err != nil || s.failed > 0 {
			t.Fatalf("traced=%t: %v %v", traced, err, s.problems)
		}
		decls := bm.EndToEnd
		if traced {
			decls = bm.PerLayer
		}
		for _, d := range decls {
			if _, ok := vals[d.Name]; !ok {
				t.Errorf("traced=%t: declared metric %s is not measured", traced, d.Name)
			}
		}
		for name := range vals {
			if !seen[name] {
				t.Errorf("traced=%t: measured metric %s is not declared", traced, name)
			}
		}
	}
}

// Every non-test Go file of the module has a layer, so a new file or
// package cannot silently fold into the wrong one.
func TestLayerMapCoversModule(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			if l := layerOf("drstrange/" + filepath.ToSlash(path)); !slices.Contains(layers, l) {
				t.Errorf("%s has no layer", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for file, want := range map[string]string{
		"runtime/mgc.go":                 "runtime",
		"internal/runtime/maps/map.go":   "runtime",
		"runtime/pprof/pprof.go":         "stdlib",
		"sort/sort.go":                   "stdlib",
		"drstrange/internal/sim/new.go":  "",
		"drstrange/internal/newpkg/x.go": "",
	} {
		if got := layerOf(file); got != want {
			t.Errorf("layerOf(%s) = %q, want %q", file, got, want)
		}
	}
}

// The traced run's replay reproduces sim.ServeLoad's point exactly on
// every serve topology, and the trace replay reproduces sim.Run.
func TestReplayMatchesServeLoad(t *testing.T) {
	for name, ref := range refPoints {
		w, err := loadWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := serveConfig(w.scenarios[0], ref.design)
		if err != nil {
			t.Fatal(err)
		}
		cfg.WindowTicks = 50_000
		want := sim.ServeLoad(cfg, []float64{ref.mbps})[0]
		got, err := replayPoint(cfg, ref.mbps)
		if err != nil {
			t.Fatal(err)
		}
		if got.submitted != want.Submitted || got.completed != want.Completed || got.p99Ticks != want.P99 {
			t.Errorf("%s: replay submitted/completed/p99 %d/%d/%g, ServeLoad %d/%d/%g",
				name, got.submitted, got.completed, got.p99Ticks, want.Submitted, want.Completed, want.P99)
		}
		if got.requests == 0 || got.step <= 0 {
			t.Errorf("%s: replay timed nothing: %+v", name, got)
		}
	}
	if _, err := replayTrace(traceRefConfig(2000)); err != nil {
		t.Error(err)
	}
}

// quartiles and the verdict follow Python's statistics module and the
// bound rule.
func TestCompareStatistics(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25] (statistics.quantiles)", q)
	}
	bound := 0.1
	d := metricDecl{Name: "wall_s", Better: "lower", Bound: &bound}
	a := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{1.01, 1.00, 1.02, 0.99, 1.00}, "within bound"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse"},
		{[]float64{0.80, 0.81, 0.79, 0.80, 0.82}, "better"},
		{[]float64{0.50, 1.50, 0.70, 1.30, 1.00}, "unresolved"},
	} {
		if got := verdict(d, a, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
