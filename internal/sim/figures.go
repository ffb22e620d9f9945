package sim

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"drstrange/internal/core"
	"drstrange/internal/cpu"
	"drstrange/internal/memctrl"
	"drstrange/internal/metrics"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// This file implements one driver per table/figure of the paper's
// evaluation (Section 8 and Appendix A). Every driver returns rendered
// Figures with the same series the paper plots; each figure's notes
// quote the values the paper reports.

// Every driver takes a base RunConfig and derives each simulation's
// configuration from it through with, so the caller's budget and engine
// reach every run the driver makes.

// with returns the base configuration running mix on design d.
func (c RunConfig) with(d Design, mix workload.Mix) RunConfig {
	c.Design, c.Mix = d, mix
	return c
}

// on returns the evalGroups variant that runs each mix on design d.
func (c RunConfig) on(d Design) func(workload.Mix) RunConfig {
	return func(m workload.Mix) RunConfig { return c.with(d, m) }
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

// evalGroups evaluates every mix of every group under each variant (a
// mix's run configuration) as one fan-out over the whole sweep, and
// returns res[v][g][i]: variant v's result on mix i of group g.
func evalGroups(ctx context.Context, groups [][]workload.Mix, variants ...func(workload.Mix) RunConfig) [][][]WorkloadResult {
	var cfgs []RunConfig
	for _, v := range variants {
		for _, mixes := range groups {
			for _, m := range mixes {
				cfgs = append(cfgs, v(m))
			}
		}
	}
	res := evalAllCtx(ctx, cfgs)
	out := make([][][]WorkloadResult, len(variants))
	for v := range out {
		out[v] = make([][]WorkloadResult, len(groups))
		for g, mixes := range groups {
			out[v][g], res = res[:len(mixes)], res[len(mixes):]
		}
	}
	return out
}

// groupMeans averages metric over each group's results and appends the
// geometric mean of the group averages (the GMEAN column).
func groupMeans(groups [][]WorkloadResult, metric func(WorkloadResult) float64) []float64 {
	vals := make([]float64, len(groups))
	for g, res := range groups {
		vals[g] = metrics.Mean(pluck(res, metric))
	}
	return append(vals, metrics.GMean(vals))
}

// wsGains is groupMeans of each mix's weighted speedup in cur over its
// RNG-oblivious weighted speedup in base; a mix whose baseline speedup
// is zero is left out of its group.
func wsGains(base, cur [][]WorkloadResult) []float64 {
	vals := make([]float64, len(cur))
	for g := range cur {
		var gains []float64
		for i, b := range base[g] {
			if b.WeightedSpeedup > 0 {
				gains = append(gains, cur[g][i].WeightedSpeedup/b.WeightedSpeedup)
			}
		}
		vals[g] = metrics.Mean(gains)
	}
	return append(vals, metrics.GMean(vals))
}

func pluck(rs []WorkloadResult, f func(WorkloadResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// means averages each metric over rs.
func means(rs []WorkloadResult, fs ...func(WorkloadResult) float64) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = metrics.Mean(pluck(rs, f))
	}
	return out
}

// columns turns rows, one per figure label, into one series per name:
// series j holds column j of every row.
func columns(names []string, rows [][]float64) []Series {
	series := make([]Series, len(names))
	for j, name := range names {
		vals := make([]float64, len(rows))
		for i, row := range rows {
			vals[i] = row[j]
		}
		series[j] = Series{Name: name, Values: vals}
	}
	return series
}

func nonRNGOf(r WorkloadResult) float64 { return r.NonRNGSlowdown }
func rngOf(r WorkloadResult) float64    { return r.RNGSlowdown }
func unfairOf(r WorkloadResult) float64 { return r.Unfairness }

// slowdownMetrics are the three metrics of the dual-core comparisons,
// named by slowdownNames.
var (
	slowdownMetrics = []func(WorkloadResult) float64{nonRNGOf, rngOf, unfairOf}
	slowdownNames   = []string{"non-RNG slowdown", "RNG slowdown", "unfairness"}
)

// appRows evaluates design d on the dual-core workloads at 5120 Mb/s
// and returns one row per metric: its value on each figure
// application's workload, then its mean over all 43 workloads (the AVG
// column).
func appRows(ctx context.Context, base RunConfig, d Design, opt func(*RunConfig), fs ...func(WorkloadResult) float64) [][]float64 {
	res := evalMixes(ctx, base, d, workload.FigureTwoCoreMixes(5120), opt)
	avg := means(evalMixes(ctx, base, d, workload.TwoCoreMixes(5120), opt), fs...)
	rows := make([][]float64, len(fs))
	for i, f := range fs {
		rows[i] = append(pluck(res, f), avg[i])
	}
	return rows
}

// Figure1 reproduces the motivation study: slowdowns and unfairness of
// the 172 two-core workloads (43 apps x 4 required RNG throughputs) on
// the RNG-oblivious baseline.
func Figure1(ctx context.Context, base RunConfig) []Figure {
	levels := []float64{640, 1280, 2560, 5120}
	rows := make([][]float64, len(levels))
	parDoCtx(ctx, len(levels), func(i int) {
		res := evalMixes(ctx, base, DesignOblivious, workload.TwoCoreMixes(levels[i]), nil)
		rows[i] = means(res, slowdownMetrics...)
	})
	avg := Figure{
		ID:     "Figure1",
		Title:  "RNG-oblivious baseline vs required RNG throughput (avg of 43 workloads)",
		Labels: []string{"640Mb/s", "1280Mb/s", "2560Mb/s", "5120Mb/s"},
		Series: columns(slowdownNames, rows),
		Notes:  []string{"paper: unfairness grows 1.32 -> 2.61 from 640 to 5120 Mb/s; non-RNG slowdown 93.1% at 5 Gb/s"},
	}
	perApp := Figure{
		ID:     "Figure1-apps",
		Title:  "Per-application slowdown at 5120 Mb/s (RNG-oblivious)",
		Labels: append(workload.FigureApps(), "AVG"),
	}
	for i, vals := range appRows(ctx, base, DesignOblivious, nil, slowdownMetrics...) {
		perApp.Series = append(perApp.Series, Series{Name: slowdownNames[i], Values: vals})
	}
	return []Figure{avg, perApp}
}

// Figure2 reproduces the TRNG-throughput sweep: box statistics of
// non-RNG slowdown and unfairness across 43 workloads for parametric
// TRNGs from 200 Mb/s to 6.4 Gb/s aggregate.
func Figure2(ctx context.Context, base RunConfig) []Figure {
	throughputs := []float64{200, 400, 800, 1600, 3200, 6400}
	box := func(id, title string, metric func(WorkloadResult) float64, note string) Figure {
		rows := make([][]float64, len(throughputs))
		parDoCtx(ctx, len(throughputs), func(i int) {
			mech := trng.Parametric(throughputs[i], 4) // aggregate over the 4 channels
			res := evalMixes(ctx, base, DesignOblivious, workload.TwoCoreMixes(5120),
				func(c *RunConfig) { c.Mech = mech })
			b := metrics.Box(pluck(res, metric))
			rows[i] = []float64{b.Min, b.Q1, b.Median, b.Q3, b.Max}
		})
		return Figure{
			ID: id, Title: title, Labels: []string{"2", "4", "8", "16", "32", "64"},
			Series: columns([]string{"min", "q1", "median", "q3", "max"}, rows),
			Notes:  []string{"x-axis: TRNG throughput (x100 Mb/s)", note},
		}
	}
	sd := box("Figure2-slowdown", "Non-RNG slowdown vs TRNG throughput", nonRNGOf,
		"paper: max slowdown 7.3 at 200 Mb/s saturating to ~2.5 by 3.2 Gb/s")
	uf := box("Figure2-unfairness", "Unfairness vs TRNG throughput", unfairOf,
		"paper: max unfairness 8.5 at 200 Mb/s down to 2.3 at 6.4 Gb/s")
	return []Figure{sd, uf}
}

// idlePeriods profiles n workloads in parallel, lengths(i) returning
// workload i's idle period lengths, and returns the Figure 5/18 series:
// the quartiles of each workload's lengths and the fraction of them at
// or above the 64-bit single-channel generation line (below it, with
// below set).
func idlePeriods(ctx context.Context, n int, lengths func(i int) []float64, below bool) []Series {
	line := float64(trng.DRaNGe().OnDemand64Latency(1))
	rows := make([][]float64, n)
	parDoCtx(ctx, n, func(i int) {
		ls := lengths(i)
		if len(ls) == 0 {
			ls = []float64{0}
		}
		b := metrics.Box(ls)
		k := 0
		for _, l := range ls {
			if (l < line) == below {
				k++
			}
		}
		rows[i] = []float64{b.Q1, b.Median, b.Q3, float64(k) / float64(len(ls))}
	})
	frac := "frac >= 64-bit line"
	if below {
		frac = "frac below 64-bit line"
	}
	return columns([]string{"q1", "median", "q3", frac}, rows)
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
		Series: idlePeriods(ctx, len(apps), func(i int) []float64 {
			return IdleProfile(ctx, base, workload.Mix{Name: apps[i], Apps: []string{apps[i]}})
		}, false),
	}
	m := trng.DRaNGe()
	line := m.OnDemand64Latency(1)
	f.Notes = append(f.Notes,
		fmt.Sprintf("64-bit single-channel generation line: %d cycles = %d to enter RNG mode + %d rounds of %d + %d to exit (paper: 198 cycles)",
			line, m.EnterLatency, (line-m.EnterLatency-m.ExitLatency)/m.RoundLatency, m.RoundLatency, m.ExitLatency),
		"paper: for many applications most idle periods fall below the line")
	return []Figure{f}
}

// IdleProfile runs a mix alone on the RNG-oblivious design, with base's
// budget and engine, and returns every idle period length its channels
// saw, shard by shard in the order the periods ended (Figures 5 and
// 18). The profile is read off the controller's idle-period log, so
// the run is not memoized, but it still counts against ctx's worker
// pool.
func IdleProfile(ctx context.Context, base RunConfig, mix workload.Mix) []float64 {
	p := poolOf(ctx)
	p.acquire()
	defer p.release()
	sys := newSystem(base.with(DesignOblivious, mix), tapeTrace)
	for _, sh := range sys.shards {
		sh.ctrl.RecordIdlePeriods()
	}
	if err := sys.runToEnd(); err != nil {
		panic(err) // a figure has no cell that could show it
	}
	var lengths []float64
	for _, sh := range sys.shards {
		for _, l := range sh.ctrl.IdlePeriods() {
			lengths = append(lengths, float64(l))
		}
	}
	return lengths
}

// designTriple is the main three-way comparison of the paper.
var designTriple = []Design{DesignOblivious, DesignGreedy, DesignDRStrange}

// perAppComparison builds per-application figures for a set of designs
// under one metric.
func perAppComparison(ctx context.Context, base RunConfig, id, title string, designs []Design,
	metric func(WorkloadResult) float64, opt func(*RunConfig)) Figure {
	f := Figure{ID: id, Title: title, Labels: append(workload.FigureApps(), "AVG"), Series: make([]Series, len(designs))}
	parDoCtx(ctx, len(designs), func(i int) {
		f.Series[i] = Series{Name: designs[i].String(), Values: appRows(ctx, base, designs[i], opt, metric)[0]}
	})
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

// classGroups returns the multicore workload groups by core count and
// memory-intensity class, labeled L(4) through H(16).
func classGroups() (labels []string, groups [][]workload.Mix) {
	for _, cores := range []int{4, 8, 16} {
		mg := workload.MultiCoreGroups(cores)
		for _, class := range []string{"L", "M", "H"} {
			labels = append(labels, fmt.Sprintf("%s(%d)", class, cores))
			groups = append(groups, mg[class])
		}
	}
	return labels, groups
}

// multicoreGroups collects the Figure 7/8 workload groups in label
// order: the four-core groups, then classGroups.
func multicoreGroups() (labels []string, groups [][]workload.Mix) {
	four := workload.FourCoreGroups()
	for _, g := range workload.FourCoreGroupNames {
		labels = append(labels, g)
		groups = append(groups, four[g])
	}
	cl, cg := classGroups()
	return append(labels, cl...), append(groups, cg...)
}

// coreGroups returns the multicore workloads of Figures 12 and 14 by
// core count (4, 8, 16), each group its L, M and H mixes in order.
func coreGroups() (groups [][]workload.Mix) {
	for _, cores := range []int{4, 8, 16} {
		mg := workload.MultiCoreGroups(cores)
		groups = append(groups, slices.Concat(mg["L"], mg["M"], mg["H"]))
	}
	return groups
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
		res := evalGroups(ctx, groups, base.on(DesignOblivious), base.on(d))
		f.Series = append(f.Series, Series{Name: d.String(), Values: wsGains(res[0], res[1])})
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
		res := evalGroups(ctx, groups, base.on(d))
		f.Series = append(f.Series, Series{Name: d.String(), Values: groupMeans(res[0], rngOf)})
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
	rows := make([][]float64, len(sizes))
	for i, size := range sizes {
		d := DesignDRStrangeNoPred
		opt := func(c *RunConfig) { c.BufferWords = size }
		if size == 0 {
			d, opt = DesignRNGAwareNoBuffer, nil
		}
		rows[i] = means(evalMixes(ctx, base, d, workload.TwoCoreMixes(5120), opt),
			nonRNGOf, rngOf, func(w WorkloadResult) float64 { return w.BufferServeRate })
	}
	f := Figure{
		ID:     "Figure10",
		Title:  "Impact of random number buffer size (avg of 43 workloads)",
		Labels: []string{"NoBuffer", "1-Entry", "4-Entry", "16-Entry", "64-Entry"},
		Series: columns([]string{"non-RNG slowdown", "RNG slowdown", "buffer serve rate"}, rows),
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
	labels := []string{"4-CORE", "8-CORE", "16-CORE", "GMEAN"}
	ws := Figure{ID: "Figure12-ws", Title: "Normalized weighted speedup of non-RNG apps under priorities", Labels: labels}
	sl := Figure{ID: "Figure12-rng", Title: "RNG slowdown under priorities", Labels: labels}

	// prioritized runs DR-STRaNGe with priority 1 on the RNG application
	// (the last core) or on every non-RNG application.
	prioritized := func(rngHigh bool) func(workload.Mix) RunConfig {
		return func(m workload.Mix) RunConfig {
			cfg := base.with(DesignDRStrange, m)
			cores := m.Cores()
			cfg.Priorities = make([]int, cores)
			if rngHigh {
				cfg.Priorities[cores-1] = 1
			} else {
				for i := range cores - 1 {
					cfg.Priorities[i] = 1
				}
			}
			return cfg
		}
	}
	groups := coreGroups()
	for _, v := range []struct {
		name string
		run  func(workload.Mix) RunConfig
	}{
		{"RNG-Oblivious", base.on(DesignOblivious)},
		{"DR-STRANGE (Non-RNG prioritized)", prioritized(false)},
		{"DR-STRANGE (RNG prioritized)", prioritized(true)},
	} {
		res := evalGroups(ctx, groups, base.on(DesignOblivious), v.run)
		ws.Series = append(ws.Series, Series{Name: v.name, Values: wsGains(res[0], res[1])})
		sl.Series = append(sl.Series, Series{Name: v.name, Values: groupMeans(res[1], rngOf)})
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
	designs := []Design{DesignDRStrange, DesignDRStrangeRL}
	accuracy := func(w WorkloadResult) float64 { return w.PredictorAccuracy * 100 }
	perApp := perAppComparison(ctx, base, "Figure14-2core", "Idleness predictor accuracy, two-core workloads (%)",
		designs, accuracy, nil)
	perApp.Notes = append(perApp.Notes, "paper: 80.0% (simple) and 80.3% (RL) on two-core workloads")

	multi := Figure{
		ID:     "Figure14-multicore",
		Title:  "Idleness predictor accuracy by core count (%)",
		Labels: []string{"2-core", "4-core", "8-core", "16-core", "GMEAN"},
	}
	groups := append([][]workload.Mix{workload.TwoCoreMixes(5120)}, coreGroups()...)
	for _, d := range designs {
		res := evalGroups(ctx, groups, base.on(d))
		multi.Series = append(multi.Series, Series{Name: d.String(), Values: groupMeans(res[0], accuracy)})
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

// designAverages is the Figure 17 and Section 8.8 table: one row per
// design, the means of slowdownMetrics over mixes.
func designAverages(ctx context.Context, base RunConfig, id, title string, designs []Design, mixes []workload.Mix) Figure {
	f := Figure{ID: id, Title: title, Labels: slices.Clone(slowdownNames)}
	for _, d := range designs {
		res := evalMixes(ctx, base, d, mixes, nil)
		f.Series = append(f.Series, Series{Name: d.String(), Values: means(res, slowdownMetrics...)})
	}
	return f
}

// Figure17 reproduces Appendix A.1: RNG applications requiring 10 Gb/s.
func Figure17(ctx context.Context, base RunConfig) []Figure {
	var mixes []workload.Mix
	for _, p := range workload.Profiles() {
		mixes = append(mixes, workload.Mix{Name: p.Name + "+rng10G", Apps: []string{p.Name}, RNGMbps: 10240})
	}
	f := designAverages(ctx, base, "Figure17", "10 Gb/s RNG demand: dual-core comparison (avg of 43 workloads)",
		designTriple, mixes)
	f.Notes = append(f.Notes,
		"paper: DR-STRaNGe improves non-RNG/RNG by 34.9%/24.5% and fairness by 56.9% at 10 Gb/s")
	return []Figure{f}
}

// Figure18 reproduces Appendix A.3: idle-period distributions of the
// multicore (non-RNG) workload groups.
func Figure18(ctx context.Context, base RunConfig) []Figure {
	labels, groups := classGroups()
	f := Figure{
		ID:     "Figure18",
		Title:  "DRAM idle period lengths, multicore non-RNG workloads (cycles)",
		Labels: labels,
		Series: idlePeriods(ctx, len(groups), func(i int) []float64 {
			var lengths []float64
			// Profile the non-RNG composition alone (the paper's
			// figure uses workloads of single-core applications).
			for _, m := range groups[i][:3] { // 3 of 10 mixes keeps profiling cheap
				lengths = append(lengths, IdleProfile(ctx, base, workload.Mix{Name: m.Name, Apps: m.Apps})...)
			}
			return lengths
		}, true),
	}
	f.Notes = append(f.Notes,
		"paper: 84.3% of idle periods fall below the 64-bit generation line; lengths shrink with core count and intensity")
	return []Figure{f}
}

// Section8_8 reproduces the low-intensity (640 Mb/s) RNG application
// results.
func Section8_8(ctx context.Context, base RunConfig) []Figure {
	f := designAverages(ctx, base, "Section8.8", "Low-intensity RNG applications (640 Mb/s, avg of 43 workloads)",
		[]Design{DesignOblivious, DesignDRStrange}, workload.TwoCoreMixes(640))
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
	energyBusy := func(d Design) []float64 {
		return means(evalMixes(ctx, base, d, workload.TwoCoreMixes(5120), nil),
			func(w WorkloadResult) float64 { return w.EnergyJ * 1e3 },
			func(w WorkloadResult) float64 { return float64(w.MemBusyTicks) / 1e6 })
	}
	obl, drs := energyBusy(DesignOblivious), energyBusy(DesignDRStrange)
	e.Series = []Series{
		{Name: "RNG-Oblivious", Values: append(obl, 0)},
		{Name: "DR-STRaNGe", Values: append(drs, 1-drs[0]/obl[0])},
	}
	e.Notes = append(e.Notes,
		"paper: 21% energy reduction, 15.8% fewer total memory cycles",
		fmt.Sprintf("measured memory-busy reduction: %.1f%%", (1-drs[1]/obl[1])*100))

	a := Figure{
		ID:     "Section8.9-area",
		Title:  "Area at 22 nm (mm^2)",
		Labels: []string{"buffer", "rng queue", "predictor", "control", "total"},
	}
	area := func(d Design) core.AreaEstimate {
		cfg := buildConfig(d, 2, trng.DRaNGe(), 0, nil)
		predictor := cfg.Predictor.(interface{ StorageBits() int })
		return core.EstimateArea(defaultBufferWords, memctrl.RNGQueueCap, predictor.StorageBits())
	}
	simple, rl := area(DesignDRStrange), area(DesignDRStrangeRL)
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
	rows := []struct {
		name string
		v    float64
	}{
		{"channels", float64(cfg.Geom.Channels)},
		{"banks/rank", float64(cfg.Geom.Banks)},
		{"rows/bank", float64(cfg.Geom.Rows)},
		{"read queue entries", memctrl.ReadQueueCap},
		{"write queue entries", memctrl.WriteQueueCap},
		{"rng queue entries", memctrl.RNGQueueCap},
		{"buffer entries", defaultBufferWords},
		{"predictor entries/channel", core.SimplePredictorEntries},
		{"period threshold (cycles)", memctrl.PeriodThreshold},
		{"low-util threshold", float64(cfg.LowUtilThreshold)},
		{"stall limit (cycles)", memctrl.StallLimit},
		{"issue width", cpu.IssueWidth},
		{"instruction window", cpu.WindowSize},
		{"cpu cycles per mem cycle", cpu.CPUPerMemTick},
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
		return append(SecurityAnalysis(base), PartitionCost(ctx, base)...)
	},
	"sec6-adv": func(_ context.Context, base RunConfig) []Figure {
		return HealthAdversary(base)
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
