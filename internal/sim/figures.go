package sim

import (
	"context"
	"fmt"
	"sort"

	"drstrange/internal/core"
	"drstrange/internal/metrics"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// This file implements one driver per table/figure of the paper's
// evaluation (Section 8 and Appendix A). Every driver returns rendered
// Figures with the same series the paper plots; EXPERIMENTS.md records
// the paper-vs-measured comparison.

// Every driver takes a base RunConfig and derives each simulation's
// configuration from it through with, so the caller's budget and engine
// reach every run the driver makes.

// with returns the base configuration running mix on design d.
func (c RunConfig) with(d Design, mix workload.Mix) RunConfig {
	c.Design, c.Mix = d, mix
	return c
}

// evalMixes evaluates a design over a mix list on the worker pool,
// returning results in mix order.
func evalMixes(ctx context.Context, base RunConfig, d Design, mixes []workload.Mix, opt func(*RunConfig)) []WorkloadResult {
	cfgs := make([]RunConfig, len(mixes))
	for i, m := range mixes {
		cfg := base.with(d, m)
		if opt != nil {
			opt(&cfg)
		}
		cfgs[i] = cfg
	}
	return evalAllCtx(ctx, cfgs)
}

func pluck(rs []WorkloadResult, f func(WorkloadResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func nonRNGOf(r WorkloadResult) float64 { return r.NonRNGSlowdown }
func rngOf(r WorkloadResult) float64    { return r.RNGSlowdown }
func unfairOf(r WorkloadResult) float64 { return r.Unfairness }

// Figure1 reproduces the motivation study: slowdowns and unfairness of
// the 172 two-core workloads (43 apps x 4 required RNG throughputs) on
// the RNG-oblivious baseline.
func Figure1(ctx context.Context, base RunConfig) []Figure {
	levels := []float64{640, 1280, 2560, 5120}
	avg := Figure{
		ID:     "Figure1",
		Title:  "RNG-oblivious baseline vs required RNG throughput (avg of 43 workloads)",
		Labels: []string{"640Mb/s", "1280Mb/s", "2560Mb/s", "5120Mb/s"},
	}
	perApp := Figure{
		ID:     "Figure1-apps",
		Title:  "Per-application slowdown at 5120 Mb/s (RNG-oblivious)",
		Labels: append(workload.FigureApps(), "AVG"),
	}
	nr := make([]float64, len(levels))
	rs := make([]float64, len(levels))
	uf := make([]float64, len(levels))
	parDoCtx(ctx, len(levels), func(i int) {
		res := evalMixes(ctx, base, DesignOblivious, workload.TwoCoreMixes(levels[i]), nil)
		nr[i] = metrics.Mean(pluck(res, nonRNGOf))
		rs[i] = metrics.Mean(pluck(res, rngOf))
		uf[i] = metrics.Mean(pluck(res, unfairOf))
	})
	avg.Series = []Series{
		{Name: "non-RNG slowdown", Values: nr},
		{Name: "RNG slowdown", Values: rs},
		{Name: "unfairness", Values: uf},
	}
	avg.Notes = append(avg.Notes,
		"paper: unfairness grows 1.32 -> 2.61 from 640 to 5120 Mb/s; non-RNG slowdown 93.1% at 5 Gb/s")

	res := evalMixes(ctx, base, DesignOblivious, workload.FigureTwoCoreMixes(5120), nil)
	all := evalMixes(ctx, base, DesignOblivious, workload.TwoCoreMixes(5120), nil)
	appVals := func(f func(WorkloadResult) float64) []float64 {
		v := pluck(res, f)
		return append(v, metrics.Mean(pluck(all, f)))
	}
	perApp.Series = []Series{
		{Name: "non-RNG slowdown", Values: appVals(nonRNGOf)},
		{Name: "RNG slowdown", Values: appVals(rngOf)},
		{Name: "unfairness", Values: appVals(unfairOf)},
	}
	return []Figure{avg, perApp}
}

// Figure2 reproduces the TRNG-throughput sweep: box statistics of
// non-RNG slowdown and unfairness across 43 workloads for parametric
// TRNGs from 200 Mb/s to 6.4 Gb/s aggregate.
func Figure2(ctx context.Context, base RunConfig) []Figure {
	throughputs := []float64{200, 400, 800, 1600, 3200, 6400}
	labels := []string{"2", "4", "8", "16", "32", "64"}
	channels := 4
	boxSeries := func(f func(WorkloadResult) float64) [6][]float64 {
		boxes := make([]metrics.BoxStats, len(throughputs))
		parDoCtx(ctx, len(throughputs), func(i int) {
			mech := trng.Parametric(throughputs[i], channels)
			res := evalMixes(ctx, base, DesignOblivious, workload.TwoCoreMixes(5120),
				func(c *RunConfig) { c.Mech = mech })
			boxes[i] = metrics.Box(pluck(res, f))
		})
		var cols [6][]float64 // min q1 med q3 max (and outlier count)
		for _, b := range boxes {
			cols[0] = append(cols[0], b.Min)
			cols[1] = append(cols[1], b.Q1)
			cols[2] = append(cols[2], b.Median)
			cols[3] = append(cols[3], b.Q3)
			cols[4] = append(cols[4], b.Max)
			cols[5] = append(cols[5], float64(len(b.Outliers)))
		}
		return cols
	}
	mk := func(id, title string, cols [6][]float64, note string) Figure {
		return Figure{
			ID: id, Title: title, Labels: labels,
			Series: []Series{
				{Name: "min", Values: cols[0]},
				{Name: "q1", Values: cols[1]},
				{Name: "median", Values: cols[2]},
				{Name: "q3", Values: cols[3]},
				{Name: "max", Values: cols[4]},
			},
			Notes: []string{"x-axis: TRNG throughput (x100 Mb/s)", note},
		}
	}
	sd := mk("Figure2-slowdown", "Non-RNG slowdown vs TRNG throughput",
		boxSeries(nonRNGOf),
		"paper: max slowdown 7.3 at 200 Mb/s saturating to ~2.5 by 3.2 Gb/s")
	uf := mk("Figure2-unfairness", "Unfairness vs TRNG throughput",
		boxSeries(unfairOf),
		"paper: max unfairness 8.5 at 200 Mb/s down to 2.3 at 6.4 Gb/s")
	return []Figure{sd, uf}
}

// Figure5 reproduces the idle-period-length distribution of the
// single-core applications, with the 64-bit single-channel generation
// time as the reference line.
func Figure5(ctx context.Context, base RunConfig) []Figure {
	apps := workload.FigureApps()
	f := Figure{
		ID:     "Figure5",
		Title:  "DRAM idle period lengths per application (cycles)",
		Labels: apps,
	}
	q1s := make([]float64, len(apps))
	meds := make([]float64, len(apps))
	q3s := make([]float64, len(apps))
	longFrac := make([]float64, len(apps))
	parDoCtx(ctx, len(apps), func(i int) {
		app := apps[i]
		lengths := IdleProfile(ctx, base, workload.Mix{Name: app, Apps: []string{app}})
		if len(lengths) == 0 {
			lengths = []float64{0}
		}
		b := metrics.Box(lengths)
		q1s[i] = b.Q1
		meds[i] = b.Median
		q3s[i] = b.Q3
		over := 0
		line := float64(trng.DRaNGe().OnDemand64Latency(1))
		for _, l := range lengths {
			if l >= line {
				over++
			}
		}
		longFrac[i] = float64(over) / float64(len(lengths))
	})
	f.Series = []Series{
		{Name: "q1", Values: q1s},
		{Name: "median", Values: meds},
		{Name: "q3", Values: q3s},
		{Name: "frac >= 64-bit line", Values: longFrac},
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("64-bit single-channel generation line: %d cycles (paper: 198 cycles; see EXPERIMENTS.md calibration note)",
			trng.DRaNGe().OnDemand64Latency(1)),
		"paper: for many applications most idle periods fall below the line")
	return []Figure{f}
}

// IdleProfile runs a mix alone and returns all observed idle period
// lengths across channels (Figures 5 and 18) on the RNG-oblivious
// design, with base's budget and engine. The run bypasses the memo (the
// callback is the point) but still counts against ctx's worker pool.
func IdleProfile(ctx context.Context, base RunConfig, mix workload.Mix) []float64 {
	var lengths []float64
	cfg := base.with(DesignOblivious, mix)
	cfg.OnIdlePeriod = func(_ int, l int64) { lengths = append(lengths, float64(l)) }
	memoRun(ctx, cfg)
	return lengths
}

// designTriple is the main three-way comparison of the paper.
var designTriple = []Design{DesignOblivious, DesignGreedy, DesignDRStrange}

// perAppComparison builds per-application figures for a set of designs
// under one metric.
func perAppComparison(ctx context.Context, base RunConfig, id, title string, designs []Design,
	metric func(WorkloadResult) float64, opt func(*RunConfig)) Figure {
	f := Figure{ID: id, Title: title, Labels: append(workload.FigureApps(), "AVG")}
	series := make([]Series, len(designs))
	parDoCtx(ctx, len(designs), func(i int) {
		d := designs[i]
		vals := pluck(evalMixes(ctx, base, d, workload.FigureTwoCoreMixes(5120), opt), metric)
		all := pluck(evalMixes(ctx, base, d, workload.TwoCoreMixes(5120), opt), metric)
		vals = append(vals, metrics.Mean(all))
		series[i] = Series{Name: d.String(), Values: vals}
	})
	f.Series = series
	return f
}

// Figure6 reproduces the dual-core performance comparison: slowdown of
// non-RNG (top) and RNG (bottom) applications under the baseline,
// Greedy, and DR-STRaNGe.
func Figure6(ctx context.Context, base RunConfig) []Figure {
	top := perAppComparison(ctx, base, "Figure6-nonRNG", "Non-RNG slowdown over single-core execution",
		designTriple, nonRNGOf, nil)
	top.Notes = append(top.Notes,
		"paper: DR-STRaNGe reduces non-RNG execution time by 17.9% on average vs baseline")
	bot := perAppComparison(ctx, base, "Figure6-RNG", "RNG slowdown over single-core execution",
		designTriple, rngOf, nil)
	bot.Notes = append(bot.Notes,
		"paper: DR-STRaNGe reduces RNG execution time by 25.1% vs baseline (20.6% faster than alone)")
	return []Figure{top, bot}
}

// multicoreGroups collects the Figure 7/8 workload groups in label
// order.
func multicoreGroups() (labels []string, groups [][]workload.Mix) {
	four := workload.FourCoreGroups()
	for _, g := range workload.FourCoreGroupNames {
		labels = append(labels, g)
		groups = append(groups, four[g])
	}
	for _, cores := range []int{4, 8, 16} {
		mg := workload.MultiCoreGroups(cores)
		for _, class := range []string{"L", "M", "H"} {
			labels = append(labels, fmt.Sprintf("%s(%d)", class, cores))
			groups = append(groups, mg[class])
		}
	}
	return labels, groups
}

// Figure7 reproduces the normalized weighted speedup of non-RNG
// applications in multicore workloads: Greedy and DR-STRaNGe
// normalized to the RNG-oblivious baseline.
func Figure7(ctx context.Context, base RunConfig) []Figure {
	labels, groups := multicoreGroups()
	f := Figure{
		ID:     "Figure7",
		Title:  "Normalized weighted speedup of non-RNG applications (vs RNG-oblivious)",
		Labels: append(labels, "GMEAN"),
	}
	for _, d := range []Design{DesignGreedy, DesignDRStrange} {
		// Flatten the groups into one job list: [base..., cur...], so
		// every simulation of the sweep fans out at once.
		var groupOf []int
		var cfgs []RunConfig
		for gi, mixes := range groups {
			for _, m := range mixes {
				groupOf = append(groupOf, gi)
				cfgs = append(cfgs, base.with(DesignOblivious, m))
			}
		}
		n := len(cfgs)
		for i := 0; i < n; i++ {
			cfg := cfgs[i]
			cfg.Design = d
			cfgs = append(cfgs, cfg)
		}
		res := evalAllCtx(ctx, cfgs)
		ratios := make([][]float64, len(groups))
		for i := 0; i < n; i++ {
			base, cur := res[i], res[n+i]
			if base.WeightedSpeedup > 0 {
				gi := groupOf[i]
				ratios[gi] = append(ratios[gi], cur.WeightedSpeedup/base.WeightedSpeedup)
			}
		}
		var vals []float64
		for _, r := range ratios {
			vals = append(vals, metrics.Mean(r))
		}
		vals = append(vals, metrics.GMean(vals))
		f.Series = append(f.Series, Series{Name: d.String(), Values: vals})
	}
	f.Notes = append(f.Notes, "paper: DR-STRaNGe improves 4-core weighted speedup by 7.6% on average")
	return []Figure{f}
}

// Figure8 reproduces the RNG application slowdown in multicore
// workloads under the three designs.
func Figure8(ctx context.Context, base RunConfig) []Figure {
	labels, groups := multicoreGroups()
	f := Figure{
		ID:     "Figure8",
		Title:  "RNG application slowdown in multicore workloads",
		Labels: append(labels, "GMEAN"),
	}
	for _, d := range designTriple {
		var groupOf []int
		var cfgs []RunConfig
		for gi, mixes := range groups {
			for _, m := range mixes {
				groupOf = append(groupOf, gi)
				cfgs = append(cfgs, base.with(d, m))
			}
		}
		res := evalAllCtx(ctx, cfgs)
		sl := make([][]float64, len(groups))
		for i, r := range res {
			sl[groupOf[i]] = append(sl[groupOf[i]], r.RNGSlowdown)
		}
		var vals []float64
		for _, s := range sl {
			vals = append(vals, metrics.Mean(s))
		}
		vals = append(vals, metrics.GMean(vals))
		f.Series = append(f.Series, Series{Name: d.String(), Values: vals})
	}
	f.Notes = append(f.Notes, "paper: DR-STRaNGe improves RNG app performance by 17.8% in 4-core groups")
	return []Figure{f}
}

// Figure9 reproduces dual-core system fairness for the three designs.
func Figure9(ctx context.Context, base RunConfig) []Figure {
	f := perAppComparison(ctx, base, "Figure9", "Unfairness index (dual-core)",
		designTriple, unfairOf, nil)
	f.Notes = append(f.Notes,
		"paper: DR-STRaNGe improves fairness by 32.1% vs baseline and 15.2% vs Greedy")
	return []Figure{f}
}

// Figure10 reproduces the buffer-size sweep: slowdowns and buffer serve
// rate for 0/1/4/16/64-entry buffers with the simple buffering
// mechanism.
func Figure10(ctx context.Context, base RunConfig) []Figure {
	sizes := []int{0, 1, 4, 16, 64}
	f := Figure{
		ID:     "Figure10",
		Title:  "Impact of random number buffer size (avg of 43 workloads)",
		Labels: []string{"NoBuffer", "1-Entry", "4-Entry", "16-Entry", "64-Entry"},
	}
	var nr, rs, serve []float64
	for _, size := range sizes {
		d := DesignDRStrangeNoPred
		opt := func(c *RunConfig) { c.BufferWords = size }
		if size == 0 {
			d = DesignRNGAwareNoBuffer
			opt = nil
		}
		res := evalMixes(ctx, base, d, workload.TwoCoreMixes(5120), opt)
		nr = append(nr, metrics.Mean(pluck(res, nonRNGOf)))
		rs = append(rs, metrics.Mean(pluck(res, rngOf)))
		serve = append(serve, metrics.Mean(pluck(res, func(w WorkloadResult) float64 { return w.BufferServeRate })))
	}
	f.Series = []Series{
		{Name: "non-RNG slowdown", Values: nr},
		{Name: "RNG slowdown", Values: rs},
		{Name: "buffer serve rate", Values: serve},
	}
	f.Notes = append(f.Notes,
		"paper: 16 entries improve non-RNG/RNG by 11.7%/13.8% with serve rate 0.55; gains saturate past 16")
	return []Figure{f}
}

// Figure11 reproduces the scheduler ablation: FR-FCFS+Cap vs BLISS vs
// the RNG-aware scheduler, all without a random number buffer.
func Figure11(ctx context.Context, base RunConfig) []Figure {
	designs := []Design{DesignOblivious, DesignBLISS, DesignRNGAwareNoBuffer}
	top := perAppComparison(ctx, base, "Figure11-nonRNG", "Non-RNG slowdown by scheduler (no buffer)",
		designs, nonRNGOf, nil)
	mid := perAppComparison(ctx, base, "Figure11-RNG", "RNG slowdown by scheduler (no buffer)",
		designs, rngOf, nil)
	bot := perAppComparison(ctx, base, "Figure11-unfairness", "Unfairness by scheduler (no buffer)",
		designs, unfairOf, nil)
	bot.Notes = append(bot.Notes,
		"paper: RNG-aware scheduler improves fairness 16.1%; BLISS raises unfairness 6.6% over FR-FCFS+Cap")
	return []Figure{top, mid, bot}
}

// Figure12 reproduces priority-based scheduling: DR-STRaNGe with the
// non-RNG applications prioritized vs with the RNG application
// prioritized, on the multicore groups.
func Figure12(ctx context.Context, base RunConfig) []Figure {
	groups := map[int][]workload.Mix{}
	for _, cores := range []int{4, 8, 16} {
		mg := workload.MultiCoreGroups(cores)
		for _, class := range []string{"L", "M", "H"} {
			groups[cores] = append(groups[cores], mg[class]...)
		}
	}
	labels := []string{"4-CORE", "8-CORE", "16-CORE", "GMEAN"}
	ws := Figure{ID: "Figure12-ws", Title: "Normalized weighted speedup of non-RNG apps under priorities", Labels: labels}
	sl := Figure{ID: "Figure12-rng", Title: "RNG slowdown under priorities", Labels: labels}

	prios := func(cores int, rngHigh bool) []int {
		p := make([]int, cores)
		if rngHigh {
			p[cores-1] = 1
		} else {
			for i := 0; i < cores-1; i++ {
				p[i] = 1
			}
		}
		return p
	}
	type variant struct {
		name    string
		design  Design
		rngHigh bool
		usePrio bool
	}
	variants := []variant{
		{"RNG-Oblivious", DesignOblivious, false, false},
		{"DR-STRANGE (Non-RNG prioritized)", DesignDRStrange, false, true},
		{"DR-STRANGE (RNG prioritized)", DesignDRStrange, true, true},
	}
	coreCounts := []int{4, 8, 16}
	for _, v := range variants {
		// Flatten the per-core-count sweeps into [base..., cur...].
		var coreIdx []int
		var cfgs []RunConfig
		for ci, cores := range coreCounts {
			for _, m := range groups[cores] {
				coreIdx = append(coreIdx, ci)
				cfgs = append(cfgs, base.with(DesignOblivious, m))
			}
		}
		n := len(cfgs)
		for i := 0; i < n; i++ {
			cfg := base.with(v.design, cfgs[i].Mix)
			if v.usePrio {
				cfg.Priorities = prios(cfg.Mix.Cores(), v.rngHigh)
			}
			cfgs = append(cfgs, cfg)
		}
		res := evalAllCtx(ctx, cfgs)
		wsr := make([][]float64, len(coreCounts))
		slr := make([][]float64, len(coreCounts))
		for i := 0; i < n; i++ {
			base, cur := res[i], res[n+i]
			ci := coreIdx[i]
			if base.WeightedSpeedup > 0 {
				wsr[ci] = append(wsr[ci], cur.WeightedSpeedup/base.WeightedSpeedup)
			}
			slr[ci] = append(slr[ci], cur.RNGSlowdown)
		}
		var wsVals, slVals []float64
		for ci := range coreCounts {
			wsVals = append(wsVals, metrics.Mean(wsr[ci]))
			slVals = append(slVals, metrics.Mean(slr[ci]))
		}
		wsVals = append(wsVals, metrics.GMean(wsVals))
		slVals = append(slVals, metrics.GMean(slVals))
		ws.Series = append(ws.Series, Series{Name: v.name, Values: wsVals})
		sl.Series = append(sl.Series, Series{Name: v.name, Values: slVals})
	}
	ws.Notes = append(ws.Notes,
		"paper: prioritizing non-RNG apps improves their weighted speedup by 8.9%; prioritizing the RNG app improves it by 9.9%")
	return []Figure{ws, sl}
}

// Figure13 reproduces the idleness predictor ablation.
func Figure13(ctx context.Context, base RunConfig) []Figure {
	designs := []Design{DesignOblivious, DesignDRStrangeNoPred, DesignDRStrange, DesignDRStrangeRL}
	top := perAppComparison(ctx, base, "Figure13-nonRNG", "Non-RNG slowdown by idleness predictor",
		designs, nonRNGOf, nil)
	bot := perAppComparison(ctx, base, "Figure13-RNG", "RNG slowdown by idleness predictor",
		designs, rngOf, nil)
	bot.Notes = append(bot.Notes,
		"paper: simple predictor improves non-RNG/RNG by 12.4%/13.8% over no predictor; RL comparable at higher cost")
	return []Figure{top, bot}
}

// Figure14 reproduces predictor accuracy: per-application on two-core
// workloads and overall for 2/4/8/16-core workloads.
func Figure14(ctx context.Context, base RunConfig) []Figure {
	perApp := Figure{
		ID:     "Figure14-2core",
		Title:  "Idleness predictor accuracy, two-core workloads (%)",
		Labels: append(workload.FigureApps(), "AVG"),
	}
	for _, d := range []Design{DesignDRStrange, DesignDRStrangeRL} {
		vals := pluck(evalMixes(ctx, base, d, workload.FigureTwoCoreMixes(5120), nil),
			func(w WorkloadResult) float64 { return w.PredictorAccuracy * 100 })
		all := pluck(evalMixes(ctx, base, d, workload.TwoCoreMixes(5120), nil),
			func(w WorkloadResult) float64 { return w.PredictorAccuracy * 100 })
		vals = append(vals, metrics.Mean(all))
		perApp.Series = append(perApp.Series, Series{Name: d.String(), Values: vals})
	}
	perApp.Notes = append(perApp.Notes, "paper: 80.0% (simple) and 80.3% (RL) on two-core workloads")

	multi := Figure{
		ID:     "Figure14-multicore",
		Title:  "Idleness predictor accuracy by core count (%)",
		Labels: []string{"2-core", "4-core", "8-core", "16-core", "GMEAN"},
	}
	for _, d := range []Design{DesignDRStrange, DesignDRStrangeRL} {
		var vals []float64
		two := pluck(evalMixes(ctx, base, d, workload.TwoCoreMixes(5120), nil),
			func(w WorkloadResult) float64 { return w.PredictorAccuracy * 100 })
		vals = append(vals, metrics.Mean(two))
		for _, cores := range []int{4, 8, 16} {
			mg := workload.MultiCoreGroups(cores)
			var cfgs []RunConfig
			for _, class := range []string{"L", "M", "H"} {
				for _, m := range mg[class] {
					cfgs = append(cfgs, base.with(d, m))
				}
			}
			acc := pluck(evalAllCtx(ctx, cfgs),
				func(w WorkloadResult) float64 { return w.PredictorAccuracy * 100 })
			vals = append(vals, metrics.Mean(acc))
		}
		vals = append(vals, metrics.GMean(vals))
		multi.Series = append(multi.Series, Series{Name: d.String(), Values: vals})
	}
	multi.Notes = append(multi.Notes, "paper: accuracy drops with core count (less idleness, more complex interference)")
	return []Figure{perApp, multi}
}

// Figure15 reproduces the low-utilization prediction ablation.
func Figure15(ctx context.Context, base RunConfig) []Figure {
	designs := []Design{DesignOblivious, DesignDRStrangeNoLowUtil, DesignDRStrange}
	top := perAppComparison(ctx, base, "Figure15-nonRNG", "Non-RNG slowdown: low-utilization threshold 0 vs 4",
		designs, nonRNGOf, nil)
	bot := perAppComparison(ctx, base, "Figure15-RNG", "RNG slowdown: low-utilization threshold 0 vs 4",
		designs, rngOf, nil)
	bot.Notes = append(bot.Notes,
		"paper: threshold 4 improves non-RNG/RNG by 5.5%/11.7% over threshold 0")
	return []Figure{top, bot}
}

// Figure16 reproduces the QUAC-TRNG end-to-end evaluation.
func Figure16(ctx context.Context, base RunConfig) []Figure {
	opt := func(c *RunConfig) { c.Mech = trng.QUACTRNG() }
	top := perAppComparison(ctx, base, "Figure16-nonRNG", "Non-RNG slowdown with QUAC-TRNG",
		designTriple, nonRNGOf, opt)
	mid := perAppComparison(ctx, base, "Figure16-RNG", "RNG slowdown with QUAC-TRNG",
		designTriple, rngOf, opt)
	bot := perAppComparison(ctx, base, "Figure16-unfairness", "Unfairness with QUAC-TRNG",
		designTriple, unfairOf, opt)
	bot.Notes = append(bot.Notes,
		"paper: with QUAC-TRNG DR-STRaNGe improves non-RNG/RNG by 18.2%/17.2% and fairness by 10.9%")
	return []Figure{top, mid, bot}
}

// Figure17 reproduces Appendix A.1: RNG applications requiring 10 Gb/s.
func Figure17(ctx context.Context, base RunConfig) []Figure {
	mixes := func(names []string) []workload.Mix {
		var out []workload.Mix
		for _, n := range names {
			out = append(out, workload.Mix{Name: n + "+rng10G", Apps: []string{n}, RNGMbps: 10240})
		}
		return out
	}
	var apps []string
	for _, p := range workload.Profiles() {
		apps = append(apps, p.Name)
	}
	f := Figure{
		ID:     "Figure17",
		Title:  "10 Gb/s RNG demand: dual-core comparison (avg of 43 workloads)",
		Labels: []string{"non-RNG slowdown", "RNG slowdown", "unfairness"},
	}
	for _, d := range designTriple {
		res := evalMixes(ctx, base, d, mixes(apps), nil)
		f.Series = append(f.Series, Series{Name: d.String(), Values: []float64{
			metrics.Mean(pluck(res, nonRNGOf)),
			metrics.Mean(pluck(res, rngOf)),
			metrics.Mean(pluck(res, unfairOf)),
		}})
	}
	f.Notes = append(f.Notes,
		"paper: DR-STRaNGe improves non-RNG/RNG by 34.9%/24.5% and fairness by 56.9% at 10 Gb/s")
	return []Figure{f}
}

// Figure18 reproduces Appendix A.3: idle-period distributions of the
// multicore (non-RNG) workload groups.
func Figure18(ctx context.Context, base RunConfig) []Figure {
	f := Figure{
		ID:    "Figure18",
		Title: "DRAM idle period lengths, multicore non-RNG workloads (cycles)",
	}
	line := float64(trng.DRaNGe().OnDemand64Latency(1))
	type combo struct {
		cores int
		class string
	}
	var combos []combo
	for _, cores := range []int{4, 8, 16} {
		for _, class := range []string{"L", "M", "H"} {
			combos = append(combos, combo{cores, class})
			f.Labels = append(f.Labels, fmt.Sprintf("%s(%d)", class, cores))
		}
	}
	q1s := make([]float64, len(combos))
	meds := make([]float64, len(combos))
	q3s := make([]float64, len(combos))
	fracShort := make([]float64, len(combos))
	parDoCtx(ctx, len(combos), func(i int) {
		mg := workload.MultiCoreGroups(combos[i].cores)
		var lengths []float64
		// Profile the non-RNG composition alone (the paper's
		// figure uses workloads of single-core applications).
		for _, m := range mg[combos[i].class][:3] { // 3 of 10 mixes keeps profiling cheap
			lengths = append(lengths, IdleProfile(ctx, base, workload.Mix{Name: m.Name, Apps: m.Apps})...)
		}
		if len(lengths) == 0 {
			lengths = []float64{0}
		}
		b := metrics.Box(lengths)
		q1s[i] = b.Q1
		meds[i] = b.Median
		q3s[i] = b.Q3
		short := 0
		for _, l := range lengths {
			if l < line {
				short++
			}
		}
		fracShort[i] = float64(short) / float64(len(lengths))
	})
	f.Series = []Series{
		{Name: "q1", Values: q1s},
		{Name: "median", Values: meds},
		{Name: "q3", Values: q3s},
		{Name: "frac below 64-bit line", Values: fracShort},
	}
	f.Notes = append(f.Notes,
		"paper: 84.3% of idle periods fall below the 64-bit generation line; lengths shrink with core count and intensity")
	return []Figure{f}
}

// Section8_8 reproduces the low-intensity (640 Mb/s) RNG application
// results.
func Section8_8(ctx context.Context, base RunConfig) []Figure {
	f := Figure{
		ID:     "Section8.8",
		Title:  "Low-intensity RNG applications (640 Mb/s, avg of 43 workloads)",
		Labels: []string{"non-RNG slowdown", "RNG slowdown", "unfairness"},
	}
	for _, d := range []Design{DesignOblivious, DesignDRStrange} {
		res := evalMixes(ctx, base, d, workload.TwoCoreMixes(640), nil)
		f.Series = append(f.Series, Series{Name: d.String(), Values: []float64{
			metrics.Mean(pluck(res, nonRNGOf)),
			metrics.Mean(pluck(res, rngOf)),
			metrics.Mean(pluck(res, unfairOf)),
		}})
	}
	f.Notes = append(f.Notes, "paper: +4.6%/+3.2% non-RNG/RNG improvement; fairness roughly unchanged")
	return []Figure{f}
}

// EnergyArea reproduces Section 8.9: energy and memory-busy-time
// reduction of DR-STRaNGe vs the baseline, plus the area estimates.
func EnergyArea(ctx context.Context, base RunConfig) []Figure {
	e := Figure{
		ID:     "Section8.9-energy",
		Title:  "Energy and memory busy time, DR-STRaNGe vs RNG-oblivious (avg of 43 workloads)",
		Labels: []string{"energy (mJ)", "mem busy (Mcycle)", "reduction vs base"},
	}
	var energies, busys []float64
	for _, d := range []Design{DesignOblivious, DesignDRStrange} {
		res := evalMixes(ctx, base, d, workload.TwoCoreMixes(5120), nil)
		energies = append(energies, metrics.Mean(pluck(res, func(w WorkloadResult) float64 { return w.EnergyJ * 1e3 })))
		busys = append(busys, metrics.Mean(pluck(res, func(w WorkloadResult) float64 { return float64(w.MemBusyTicks) / 1e6 })))
	}
	e.Series = []Series{
		{Name: "RNG-Oblivious", Values: []float64{energies[0], busys[0], 0}},
		{Name: "DR-STRaNGe", Values: []float64{energies[1], busys[1], 1 - energies[1]/energies[0]}},
	}
	e.Notes = append(e.Notes,
		"paper: 21% energy reduction, 15.8% fewer total memory cycles",
		fmt.Sprintf("measured memory-busy reduction: %.1f%%", (1-busys[1]/busys[0])*100))

	a := Figure{
		ID:     "Section8.9-area",
		Title:  "Area at 22 nm (mm^2)",
		Labels: []string{"buffer", "rng queue", "predictor", "control", "total"},
	}
	simple := core.EstimateArea(16, 32, core.NewSimplePredictor(4, 256, 40).StorageBits())
	rl := core.EstimateArea(16, 32, core.NewQPredictor(4, 40, 0.05).StorageBits())
	a.Series = []Series{
		{Name: "simple predictor", Values: []float64{simple.BufferMM2, simple.RNGQueueMM2, simple.PredictorMM2, simple.ControlMM2, simple.TotalMM2}},
		{Name: "RL predictor", Values: []float64{rl.BufferMM2, rl.RNGQueueMM2, rl.PredictorMM2, rl.ControlMM2, rl.TotalMM2}},
	}
	a.Notes = append(a.Notes,
		"paper: 0.0022 mm^2 (simple, 0.00048% of a Cascade Lake core); 0.012 mm^2 with the RL agent")
	return []Figure{e, a}
}

// Table1 renders the simulated system configuration.
func Table1() []Figure {
	f := Figure{
		ID:     "Table1",
		Title:  "Simulated system configuration (defaults)",
		Labels: []string{"value"},
	}
	cfg := buildConfig(DesignDRStrange, 2, trng.DRaNGe(), 0, nil)
	ccfg := struct{ width, window, ratio int }{3, 128, 20}
	rows := []struct {
		name string
		v    float64
	}{
		{"channels", float64(cfg.Geom.Channels)},
		{"banks/rank", float64(cfg.Geom.Banks)},
		{"rows/bank", float64(cfg.Geom.Rows)},
		{"read queue entries", float64(cfg.ReadQueueCap)},
		{"write queue entries", float64(cfg.WriteQueueCap)},
		{"rng queue entries", float64(cfg.RNGQueueCap)},
		{"buffer entries", 16},
		{"predictor entries/channel", 256},
		{"period threshold (cycles)", float64(cfg.PeriodThreshold)},
		{"low-util threshold", float64(cfg.LowUtilThreshold)},
		{"stall limit (cycles)", float64(cfg.StallLimit)},
		{"issue width", float64(ccfg.width)},
		{"instruction window", float64(ccfg.window)},
		{"cpu cycles per mem cycle", float64(ccfg.ratio)},
	}
	for _, r := range rows {
		f.Series = append(f.Series, Series{Name: r.name, Values: []float64{r.v}})
	}
	return []Figure{f}
}

// Experiments is the registry of all reproduction drivers, keyed by
// the paper's figure/table identifiers. Every driver takes a context
// and a base RunConfig. The context carries the worker pool
// (WithWorkers) and cancellation: cancelling stops the driver's
// simulation fan-out from claiming new work (in-flight simulations
// complete, keeping the memo coherent), so a cancelled driver's return
// value must be discarded — callers detect abandonment via ctx.Err(),
// as the public scenario API does. The base carries the instruction
// budget and the engine into every simulation the driver runs.
var Experiments = map[string]func(ctx context.Context, base RunConfig) []Figure{
	"fig1":   Figure1,
	"fig2":   Figure2,
	"fig5":   Figure5,
	"fig6":   Figure6,
	"fig7":   Figure7,
	"fig8":   Figure8,
	"fig9":   Figure9,
	"fig10":  Figure10,
	"fig11":  Figure11,
	"fig12":  Figure12,
	"fig13":  Figure13,
	"fig14":  Figure14,
	"fig15":  Figure15,
	"fig16":  Figure16,
	"fig17":  Figure17,
	"fig18":  Figure18,
	"sec8.8": Section8_8,
	"sec8.9": EnergyArea,
	"sec6": func(ctx context.Context, base RunConfig) []Figure {
		return append(SecurityAnalysis(base.Instructions), PartitionCost(ctx, base)...)
	},
	"sec6-adv": func(_ context.Context, base RunConfig) []Figure {
		return HealthAdversary(base.Instructions)
	},
	"table1": func(context.Context, RunConfig) []Figure { return Table1() },
}

// ExperimentIDs returns the registry keys in stable order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Experiments))
	for id := range Experiments { //drstrange:nondet-ok collect-then-sort: the slice is sorted before it is returned
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
