package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// serveTestConfig keeps the open-loop tests fast: short warmup and
// window, Poisson arrivals, one-word requests.
func serveTestConfig(d Design) ServeConfig {
	return ServeConfig{
		Design:      d,
		WarmupTicks: 8_000,
		WindowTicks: 30_000,
		Seed:        7,
	}
}

// TestServeLoadDeterministicAcrossWorkers is the injected-request
// determinism gate: the full sweep — every completion timestamp
// aggregated into every percentile — must be byte-identical at any
// worker count, like the figure drivers.
func TestServeLoadDeterministicAcrossWorkers(t *testing.T) {
	loads := []float64{320, 1280, 2560}
	cfg := serveTestConfig(DesignDRStrange)
	designs := []Design{DesignOblivious, DesignDRStrange}
	sweep := func(workers int) ([]ServePoint, string) {
		ctx := WithWorkers(context.Background(), workers)
		pts, err := ServeLoadCtx(ctx, cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		figs, _, err := ServeCurvesCtx(ctx, designs, cfg, loads, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pts, RenderAll(figs)
	}
	seq, seqFigs := sweep(1)
	par, parFigs := sweep(4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("ServeLoad differs across worker counts\n 1: %+v\n 4: %+v", seq, par)
	}
	if seqFigs != parFigs {
		t.Errorf("ServeCurves output differs across worker counts\n--- 1 ---\n%s\n--- 4 ---\n%s", seqFigs, parFigs)
	}
}

// TestServeLoadEngineDifferential requires the open-loop layer to obey
// the engine contract end to end: identical sweep results from the
// event and ticked engines.
func TestServeLoadEngineDifferential(t *testing.T) {
	loads := []float64{640, 2560}
	cfg := serveTestConfig(DesignDRStrange)
	cfg.Engine = EngineTicked
	ticked := ServeLoad(cfg, loads)
	cfg.Engine = EngineEvent
	event := ServeLoad(cfg, loads)
	if !reflect.DeepEqual(ticked, event) {
		t.Errorf("ServeLoad diverges between engines\n ticked: %+v\n event:  %+v", ticked, event)
	}
}

// TestServeLoadCurveShape pins the acceptance criteria of the open-loop
// scenario: p99 request latency grows monotonically with offered load,
// and DR-STRaNGe's buffering beats the RNG-oblivious baseline at low-
// to-mid load (where the buffer absorbs requests at SRAM latency) while
// both saturate near the mechanism's aggregate throughput.
func TestServeLoadCurveShape(t *testing.T) {
	loads := []float64{320, 640, 1280, 2560}
	obl := ServeLoad(serveTestConfig(DesignOblivious), loads)
	drs := ServeLoad(serveTestConfig(DesignDRStrange), loads)
	// Monotonicity allows a small pre-queueing slack: under the
	// oblivious design a busier RNG queue can shave a few enter-latency
	// ticks off low-load requests (arrivals find channels already in
	// RNG mode), before queueing growth dominates everything.
	const slack = 15.0
	for name, pts := range map[string][]ServePoint{"oblivious": obl, "drstrange": drs} {
		for i, pt := range pts {
			if pt.Completed == 0 || pt.Completed != pt.Submitted {
				t.Fatalf("%s @%gMb/s: %d/%d requests completed", name, pt.OfferedMbps, pt.Completed, pt.Submitted)
			}
			if i > 0 && pt.P99 < pts[i-1].P99-slack {
				t.Errorf("%s: p99 not monotone in load: %g ticks @%gMb/s after %g ticks @%gMb/s",
					name, pt.P99, pt.OfferedMbps, pts[i-1].P99, pts[i-1].OfferedMbps)
			}
		}
		if last, first := pts[len(pts)-1].P99, pts[0].P99; last <= first {
			t.Errorf("%s: p99 did not grow across the sweep (%g -> %g ticks)", name, first, last)
		}
	}
	// Low-to-mid load: buffering should serve most requests at SRAM
	// latency, far below on-demand generation.
	for i := range loads[:3] {
		if drs[i].P99 >= obl[i].P99 {
			t.Errorf("@%gMb/s: DR-STRaNGe p99 %g >= oblivious %g", loads[i], drs[i].P99, obl[i].P99)
		}
	}
	if drs[0].BufferHitRate < 0.9 {
		t.Errorf("low-load buffer hit rate %.2f, want >= 0.9", drs[0].BufferHitRate)
	}
	if obl[len(obl)-1].BufferHitRate != 0 {
		t.Errorf("oblivious design reported buffer hits")
	}
}

// servePointReference re-implements the pre-streaming collection path
// verbatim: materialize every arrival up front, retain every request
// handle until the end, scan the full slice to detect drain completion,
// and sort all latencies for the percentiles. It exists only as the
// differential oracle for the streaming pipeline.
func servePointReference(cfg ServeConfig, mbps float64) ServePoint {
	cfg.normalize()
	words := (cfg.RequestBytes + 7) / 8
	reqBits := float64(cfg.RequestBytes * 8)
	ratePerTick := mbps * 1e6 / trng.MemCyclesPerSecond / reqBits
	seed := cfg.Seed ^ math.Float64bits(mbps)
	arr, err := workload.NewArrivals(cfg.Arrival, ratePerTick, cfg.Burstiness, seed)
	if err != nil {
		panic(err)
	}
	sys := NewSystem(RunConfig{
		Design:       cfg.Design,
		Mix:          cfg.Background,
		Mech:         cfg.Mech,
		BufferWords:  cfg.BufferWords,
		Instructions: serveTarget,
		Seed:         cfg.Seed,
		Clients:      cfg.Clients,
		Engine:       cfg.Engine,
	})
	end := cfg.WarmupTicks + cfg.WindowTicks
	var reqs []*InjectedRequest
	for i := 0; ; i++ {
		t := arr.NextArrival()
		if t >= end {
			break
		}
		reqs = append(reqs, sys.InjectRNG(i%cfg.Clients, t, words))
	}
	for sys.Now() < end {
		target := sys.Now() + serveSlice
		if target > end-1 {
			target = end - 1
		}
		sys.StepTo(target)
	}
	horizon := end + 20*cfg.WindowTicks
	for sys.Now() < horizon {
		done := true
		for _, r := range reqs {
			if !r.Done {
				done = false
				break
			}
		}
		if done {
			break
		}
		sys.StepTo(sys.Now() + 4095)
	}

	p := ServePoint{OfferedMbps: mbps}
	var lats []float64
	var sum float64
	var bufWords, doneWords int
	var achievedBits float64
	for _, r := range reqs {
		if r.Done && r.FinishTick >= cfg.WarmupTicks && r.FinishTick < end {
			achievedBits += reqBits
		}
		if r.SubmitTick < cfg.WarmupTicks {
			continue
		}
		p.Submitted++
		if !r.Done {
			continue
		}
		p.Completed++
		l := float64(r.Latency())
		lats = append(lats, l)
		sum += l
		bufWords += r.BufferWords
		doneWords += r.Words
	}
	p.AchievedMbps = achievedBits / float64(cfg.WindowTicks) * trng.MemCyclesPerSecond / 1e6
	if doneWords > 0 {
		p.BufferHitRate = float64(bufWords) / float64(doneWords)
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		refPct := func(q float64) float64 {
			idx := int(math.Ceil(q*float64(len(lats)))) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(lats) {
				idx = len(lats) - 1
			}
			return lats[idx]
		}
		p.MeanTicks = sum / float64(len(lats))
		p.P50 = refPct(0.50)
		p.P95 = refPct(0.95)
		p.P99 = refPct(0.99)
		p.P999 = refPct(0.999)
	}
	return p
}

// TestServePointMatchesReferenceCollection is the streaming pipeline's
// equivalence gate: at every load regime — buffered low load, near
// capacity, and 2x over capacity (where the drain horizon and the
// backpressure FIFO matter) — the chunked-injection, histogram-based,
// recycling pipeline must reproduce the pre-streaming collection bit
// for bit, under both engines and with background contention.
func TestServePointMatchesReferenceCollection(t *testing.T) {
	cfg := serveTestConfig(DesignDRStrange)
	cfg.Background = workload.Mix{Name: "mcf", Apps: []string{"mcf"}}
	loads := []float64{320, 2560, 5120}
	for _, engine := range []string{EngineEvent, EngineTicked} {
		cfg.Engine = engine
		got := ServeLoad(cfg, loads)
		for i, mbps := range loads {
			want := servePointReference(cfg, mbps)
			g := got[i]
			// The reference cannot measure the pipeline-cost fields;
			// blank them so the comparison covers the measurement.
			g.PeakOutstanding, g.RecycledRequests, g.LatencyBins = 0, 0, 0
			if !reflect.DeepEqual(g, want) {
				t.Errorf("%s @%gMb/s: streaming point differs from reference\n got: %+v\nwant: %+v",
					engine, mbps, g, want)
			}
		}
	}
}

// TestServeLoadPipelineStats pins the memory story the streaming
// pipeline reports per point: the outstanding-request peak is set by
// queueing (here the cold-start transient), NOT by the window length —
// tripling the window triples the submitted count but leaves the peak
// untouched — recycling absorbs the rest, and the histogram holds far
// fewer bins than observations.
func TestServeLoadPipelineStats(t *testing.T) {
	cfg := serveTestConfig(DesignDRStrange)
	short := ServeLoad(cfg, []float64{1280})[0]
	cfg.WindowTicks *= 3
	long := ServeLoad(cfg, []float64{1280})[0]
	if short.PeakOutstanding <= 0 {
		t.Fatalf("PeakOutstanding = %d, want > 0", short.PeakOutstanding)
	}
	if long.Submitted < 2*short.Submitted {
		t.Fatalf("tripled window did not grow the load (%d -> %d submitted)", short.Submitted, long.Submitted)
	}
	// The peak is a max over random queue excursions, so it can creep a
	// few requests as the run lengthens — but it must not track the 3x
	// window growth.
	if long.PeakOutstanding > short.PeakOutstanding+short.PeakOutstanding/2 {
		t.Errorf("PeakOutstanding scales with the window (%d @%d submitted -> %d @%d submitted): memory is not O(outstanding)",
			short.PeakOutstanding, short.Submitted, long.PeakOutstanding, long.Submitted)
	}
	for _, pt := range []ServePoint{short, long} {
		if pt.RecycledRequests == 0 {
			t.Error("no request handles were recycled")
		}
		if pt.LatencyBins <= 0 || int64(pt.LatencyBins) > pt.Completed {
			t.Errorf("LatencyBins = %d with %d completions", pt.LatencyBins, pt.Completed)
		}
	}
}

// TestServeLoadCtxRejectsBadArrival: an invalid arrival process must
// surface as an error from the sweep entry points (and propagate
// through the curve fan-out), not panic a worker or yield zero figures.
func TestServeLoadCtxRejectsBadArrival(t *testing.T) {
	cfg := serveTestConfig(DesignDRStrange)
	cfg.Arrival = "lumpy"
	if _, err := ServeLoadCtx(context.Background(), cfg, []float64{320}); err == nil {
		t.Fatal("ServeLoadCtx accepted an unknown arrival process")
	}
	figs, pts, err := ServeCurvesCtx(context.Background(), []Design{DesignOblivious, DesignDRStrange}, cfg, []float64{320}, nil)
	if err == nil {
		t.Fatal("ServeCurvesCtx swallowed the arrival error")
	}
	if figs != nil || pts != nil {
		t.Fatalf("ServeCurvesCtx returned results alongside the error: %+v %+v", figs, pts)
	}
}

// TestServeLoadCtxRejectsOversizedPopulation: a closed-loop population
// past MaxClients must surface as an error from the sweep up front, not
// as a makeslice panic in a worker.
func TestServeLoadCtxRejectsOversizedPopulation(t *testing.T) {
	// At 5120 Mb/s of 8-byte requests the rate is 0.4 requests per
	// tick, so 163843 think ticks size a population of 65537.
	for think, wantSub := range map[int64]string{
		1 << 62: "closed-loop population",
		163_843: "closed-loop population of 65537 clients at 5120 Mb/s exceeds 65536",
	} {
		cfg := serveTestConfig(DesignDRStrange)
		cfg.ThinkTicks = think
		_, err := ServeLoadCtx(context.Background(), cfg, []float64{320, 5120})
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("think %d: ServeLoadCtx error %v, want one containing %q", think, err, wantSub)
		}
	}
}

// TestServeLoadCtxRejectsBadLoads: a non-positive or non-finite offered
// load is a configuration error, returned before any point runs. (Zero
// and negative loads used to panic in a worker, a NaN load to measure a
// meaningless point, and +Inf to exhaust memory generating arrivals.)
func TestServeLoadCtxRejectsBadLoads(t *testing.T) {
	for _, tc := range []struct {
		name string
		load float64
	}{
		{"negative", -1},
		{"zero", 0},
		{"NaN", math.NaN()},
		{"infinite", math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ServeLoadCtx(context.Background(), serveTestConfig(DesignDRStrange), []float64{tc.load})
			want := fmt.Sprintf("offered load must be a positive finite Mb/s value; got %g", tc.load)
			if err == nil || err.Error() != want {
				t.Errorf("ServeLoadCtx error %v, want %q", err, want)
			}
		})
	}
}

// TestServeLoadCtxRejectsBacklog: an open-loop point whose arrivals
// would queue more than MaxBacklog requests beyond the streaming
// capacity is rejected before any point runs. (1e12 Mb/s used to end in
// "fatal error: out of memory".) A cancelled context shows which
// points pass: they get only the cancellation, and nothing simulates.
func TestServeLoadCtxRejectsBacklog(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		shards int
		window int64
		think  int64
		load   float64
		reject bool
	}{
		{"1e12", 1, 2_000, 0, 1e12, true},
		{"1e15", 1, 2_000, 0, 1e15, true},
		// With no warmup, 1 request per tick beyond capacity (12800 Mb/s
		// of 8-byte requests) for 1<<22 ticks is the cap.
		{"just under the cap", 1, 1 << 22, 0, 2560 + 12000, false},
		{"just over the cap", 1, 1 << 22, 0, 2560 + 13600, true},
		{"capacity, any window", 1, 1 << 40, 0, 2560, false},
		{"four shards' capacity, any window", 4, 1 << 40, 0, 4 * 2560, false},
		{"past four shards' capacity", 4, 1 << 40, 0, 4*2560 + 1, true},
		{"closed loop", 1, 1 << 40, 100, 1e6, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serveTestConfig(DesignDRStrange)
			cfg.WarmupTicks, cfg.WindowTicks, cfg.Shards, cfg.ThinkTicks = 0, tc.window, tc.shards, tc.think
			_, err := ServeLoadCtx(cancelled, cfg, []float64{320, tc.load})
			if tc.reject {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("past %d", MaxBacklog)) {
					t.Errorf("ServeLoadCtx error %v, want the backlog cap", err)
				}
			} else if !errors.Is(err, context.Canceled) {
				t.Errorf("ServeLoadCtx error %v, want only the cancellation", err)
			}
		})
	}
}

// TestServeLoadCtxBurstiness: a NaN burstiness is a configuration
// error, as in Scenario.Validate, while finite values outside [0, 0.32]
// keep measuring the clamped process. (A NaN used to put the bursty
// process in a one-request-per-tick phase, measuring 2560 Mb/s achieved
// at 640 offered.)
func TestServeLoadCtxBurstiness(t *testing.T) {
	cfg := serveTestConfig(DesignDRStrange)
	cfg.Arrival = workload.ArrivalBursty
	cfg.Burstiness = math.NaN()
	if _, err := ServeLoadCtx(context.Background(), cfg, []float64{640}); err == nil || !strings.Contains(err.Error(), "burstiness") {
		t.Fatalf("ServeLoadCtx error %v, want a burstiness error", err)
	}
	for _, tc := range []struct{ b, clamped float64 }{{-1, 0}, {math.Inf(-1), 0}, {5, 0.32}, {math.Inf(1), 0.32}} {
		cfg.Burstiness = tc.b
		got := ServeLoad(cfg, []float64{640})
		cfg.Burstiness = tc.clamped
		if want := ServeLoad(cfg, []float64{640}); !reflect.DeepEqual(got, want) {
			t.Errorf("burstiness %g measured %+v, want the clamped %g point %+v", tc.b, got, tc.clamped, want)
		}
	}
}

// TestServeLoadContention exercises serving alongside a memory-
// intensive background application: the sweep must still complete and
// the contended tail must not be lighter than the dedicated one.
func TestServeLoadContention(t *testing.T) {
	cfg := serveTestConfig(DesignDRStrange)
	dedicated := ServeLoad(cfg, []float64{1280})[0]
	cfg.Background = workload.Mix{Name: "mcf", Apps: []string{"mcf"}}
	contended := ServeLoad(cfg, []float64{1280})[0]
	if contended.Completed == 0 {
		t.Fatal("no requests completed under contention")
	}
	if contended.P99 < dedicated.P99 {
		t.Errorf("contended p99 %g < dedicated p99 %g", contended.P99, dedicated.P99)
	}
}

// TestServeLoadArrivalProcesses smoke-runs every arrival process
// through the serving layer at one load point.
func TestServeLoadArrivalProcesses(t *testing.T) {
	for _, arrival := range workload.ArrivalNames() {
		cfg := serveTestConfig(DesignDRStrange)
		cfg.Arrival = arrival
		cfg.Burstiness = 0.3
		pt := ServeLoad(cfg, []float64{640})[0]
		if pt.Completed == 0 || pt.Completed != pt.Submitted {
			t.Errorf("%s: %d/%d requests completed", arrival, pt.Completed, pt.Submitted)
		}
		if pt.P99 <= 0 {
			t.Errorf("%s: p99 = %g", arrival, pt.P99)
		}
	}
}
