package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// compare prints, for every metric × workload present in both sets of
// result files, each side's median and quartiles, the ratio B/A, and a
// verdict against the metric's bound.
func compare(w io.Writer, bm *benchmarkFile, dirA, dirB string) error {
	a, err := readResults(dirA)
	if err != nil {
		return err
	}
	b, err := readResults(dirB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1..q3\tA spread\tB median\tB q1..q3\tB spread\tB/A\tverdict\t")
	for _, wl := range bm.Workloads {
		for _, d := range slices.Concat(bm.EndToEnd, bm.PerLayer) {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.4g..%.4g\t%s\t%.6g\t%.4g..%.4g\t%s\t%s\t%s\t\n",
				wl.Name, d.Name, qa[1], qa[0], qa[2], spreadText(qa), qb[1], qb[0], qb[2], spreadText(qb),
				ratioText(qa[1], qb[1]), verdict(d, va, vb))
		}
	}
	return tw.Flush()
}

// readResults loads a directory of result files as workload → metric →
// one value per file. Failed runs are refused: a set with a failure
// cannot vouch for its numbers.
func readResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s holds no result files", dir)
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: run failed: %v", f, res.Problems)
		}
		if out[res.Workload] == nil {
			out[res.Workload] = map[string][]float64{}
		}
		for name, st := range res.Metrics {
			out[res.Workload][name] = append(out[res.Workload][name], st.Value)
		}
	}
	return out, nil
}

// verdict judges B against A for one metric. With a bound: unresolved
// when either side's spread (quartile distance over median) exceeds it,
// unless every B run beats or trails every A run; worse when B's median
// is worse by more than the bound; better when it is better by more than
// A's spread; otherwise within bound. Unbounded metrics (per-layer and
// model outputs) get no verdict unless both sides read identically,
// which deterministic counters and model outputs must.
func verdict(d metricDecl, a, b []float64) string {
	qa, qb := quartiles(a), quartiles(b)
	if d.Bound == nil {
		if qa == qb {
			return "identical"
		}
		return "-"
	}
	if qa[1] == 0 {
		return "unresolved"
	}
	worse := (qb[1] - qa[1]) / qa[1]
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	bound := *d.Bound
	if spread(qa) > bound || spread(qb) > bound {
		switch {
		case allBeat(b, a, better):
			return "better"
		case allBeat(a, b, better):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case -worse > spread(qa):
		return "better"
	}
	return "within bound"
}

// allBeat reports whether every x beats every y.
func allBeat(xs, ys []float64, beats func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !beats(x, y) {
				return false
			}
		}
	}
	return true
}

// median is the middle value (mean of the two middle values for an even
// count), as Python's statistics.median gives it.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1, the median, and q3, with q1 and q3 computed as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	q := [3]float64{0, median(s), 0}
	if n < 2 {
		q[0], q[2] = q[1], q[1]
		return q
	}
	m := n + 1
	for k, i := range []int{1, 3} {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[2*k] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

func spreadText(q [3]float64) string { return fmt.Sprintf("%.1f%%", 100*spread(q)) }

func ratioText(a, b float64) string {
	if a == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", b/a)
}
