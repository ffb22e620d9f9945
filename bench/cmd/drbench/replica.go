package main

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"time"

	"drstrange"
	"drstrange/internal/metrics"
	"drstrange/internal/sim"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// The traced run replays one reference point of each workload through
// the simulator's public calls instead of drstrange.Run, so it can time
// each call from outside the program. The replay mirrors the serve
// layer's own point drivers (sim.ServeLoad); the trace checks that it
// reproduces the Report's Submitted, Completed, and p99 exactly, and the
// package tests pin it against sim.ServeLoad.

// Constants of the serve layer's point drivers (internal/sim/serve.go).
const (
	serveTarget = int64(1) << 40 // per-core budget of serving runs
	serveSlice  = 1 << 13        // ticks per StepTo slice
	drainStep   = 4095           // ticks per drain StepTo
)

// pointRun is one replayed reference point: the System it leaves behind
// (for the counters), its outcome, and the host time spent in each
// public call.
type pointRun struct {
	sys       *sim.System
	submitted int64
	completed int64
	p99Ticks  float64

	newSystem time.Duration // sim.NewSystem
	step      time.Duration // System.StepTo, including the drain
	arrivals  time.Duration // arrival generation (Chunked or ClosedLoop)
	inject    time.Duration // System.InjectRNG / InjectRNGClass
	histAdd   time.Duration // metrics.Histogram.Add over every measured latency
	requests  int64         // arrivals generated and injected
}

// serveConfig lowers a serve scenario onto the simulator's ServeConfig
// for one design, as the public API does.
func serveConfig(sc drstrange.Scenario, design string) (sim.ServeConfig, error) {
	n := sc.Normalized()
	d, ok := sim.DesignByName(design)
	if !ok {
		return sim.ServeConfig{}, fmt.Errorf("unknown design %q", design)
	}
	mech, ok := trng.ByName(n.Mechanism)
	if !ok {
		return sim.ServeConfig{}, fmt.Errorf("unknown mechanism %q", n.Mechanism)
	}
	return sim.ServeConfig{
		Design:       d,
		Mech:         mech,
		BufferWords:  n.BufferWords,
		Background:   workload.Mix{Name: strings.Join(n.Apps, "+"), Apps: n.Apps},
		Clients:      n.Clients,
		ThinkTicks:   n.ThinkTicks,
		Classes:      n.Classes,
		Admission:    n.Admission,
		RequestBytes: n.RequestBytes,
		Arrival:      n.Arrival,
		Burstiness:   n.Burstiness,
		WarmupTicks:  *n.WarmupTicks,
		WindowTicks:  n.WindowTicks,
		Seed:         n.Seed,
		Shards:       n.Shards,
		Router:       n.Router,
		Health:       n.Health,
		Fault:        n.Fault,
		Warm:         n.Warm,
		Checkpoint:   n.Checkpoint,
	}.Normalized(), nil
}

// pointRunConfig builds the System a serve point runs on.
func pointRunConfig(cfg sim.ServeConfig) (sim.RunConfig, error) {
	rcfg := sim.RunConfig{
		Design:       cfg.Design,
		Mix:          cfg.Background,
		Mech:         cfg.Mech,
		BufferWords:  cfg.BufferWords,
		Instructions: serveTarget,
		Seed:         cfg.Seed,
		Clients:      cfg.Clients,
		Shards:       cfg.Shards,
		Router:       cfg.Router,
		Admission:    cfg.Admission,
		AdmitDepth:   cfg.AdmitDepth,
	}
	for _, name := range cfg.Classes {
		cls, ok := sim.ClassByName(name)
		if !ok {
			return sim.RunConfig{}, fmt.Errorf("unknown request class %q", name)
		}
		rcfg.Classes = append(rcfg.Classes, cls)
	}
	if cfg.Health == "on" {
		rcfg.Health = trng.DefaultHealthConfig()
		rcfg.Fault = trng.DefaultFaultProfile(cfg.Fault)
	}
	return rcfg, nil
}

// replayPoint replays one offered-load point of a cold serve sweep,
// open- or closed-loop as the configuration says.
func replayPoint(cfg sim.ServeConfig, mbps float64) (*pointRun, error) {
	cfg = cfg.Normalized()
	if cfg.Warm == "on" || cfg.Checkpoint > 0 {
		return nil, fmt.Errorf("replay covers cold, uncheckpointed points only")
	}
	rcfg, err := pointRunConfig(cfg)
	if err != nil {
		return nil, err
	}
	ratePerTick := mbps * 1e6 / trng.MemCyclesPerSecond / float64(cfg.RequestBytes*8)
	seed := cfg.Seed ^ math.Float64bits(mbps)
	closed := cfg.ThinkTicks > 0
	var pop int
	if closed {
		pop = max(1, int(math.Round(ratePerTick*float64(cfg.ThinkTicks))))
		rcfg.Clients = pop
	}

	pr := &pointRun{}
	t := time.Now()
	sys := sim.NewSystem(rcfg)
	pr.newSystem = time.Since(t)
	pr.sys = sys
	end := cfg.WarmupTicks + cfg.WindowTicks
	if cfg.Health == "on" {
		sys.SetAvailabilityWindow(cfg.WarmupTicks, end)
	}

	var lat []int64
	if closed {
		cl := workload.NewClosedLoop(pop, cfg.ThinkTicks, seed)
		sys.OnInjectionComplete(func(r *sim.InjectedRequest) {
			if r.Failed || r.Shed || r.Missed {
				cl.OnFailure(r.Client, r.FinishTick)
				return
			}
			if r.SubmitTick >= cfg.WarmupTicks {
				lat = append(lat, r.Latency())
			}
			cl.OnSuccess(r.Client, r.FinishTick)
		})
		replayClosed(pr, cfg, cl, end)
	} else {
		arr, err := workload.NewArrivals(cfg.Arrival, ratePerTick, cfg.Burstiness, seed)
		if err != nil {
			return nil, err
		}
		sys.OnInjectionComplete(func(r *sim.InjectedRequest) {
			if !r.Failed && !r.Shed && !r.Missed && r.SubmitTick >= cfg.WarmupTicks {
				lat = append(lat, r.Latency())
			}
		})
		replayOpen(pr, cfg, workload.NewChunked(arr), end)
	}

	horizon := end + 20*cfg.WindowTicks
	for sys.OutstandingInjections() > 0 && sys.Now() < horizon {
		t := time.Now()
		sys.StepTo(sys.Now() + drainStep)
		pr.step += time.Since(t)
	}

	// The hook only records latencies; folding them into the histogram
	// afterwards times Histogram.Add as one batch of sub-microsecond
	// calls.
	var hist metrics.Histogram
	t = time.Now()
	for _, l := range lat {
		hist.Add(l)
	}
	pr.histAdd = time.Since(t)
	pr.completed = int64(len(lat))
	if hist.N() > 0 {
		pr.p99Ticks = hist.Percentile(0.99)
	}
	return pr, nil
}

// replayOpen feeds each StepTo slice its open-loop arrivals, mirroring
// the serve layer's open-loop point driver.
func replayOpen(pr *pointRun, cfg sim.ServeConfig, chunk *workload.ChunkedArrivals, end int64) {
	sys := pr.sys
	words := (cfg.RequestBytes + 7) / 8
	var due []int64
	for sys.Now() < end {
		target := min(sys.Now()+serveSlice, end-1)
		t0 := time.Now()
		due = due[:0]
		chunk.TakeThrough(target, end, func(tick int64) { due = append(due, tick) })
		t1 := time.Now()
		for _, tick := range due {
			if tick >= cfg.WarmupTicks {
				pr.submitted++
			}
			sys.InjectRNG(int(pr.requests)%cfg.Clients, tick, words)
			pr.requests++
		}
		t2 := time.Now()
		sys.StepTo(target)
		pr.arrivals += t1.Sub(t0)
		pr.inject += t2.Sub(t1)
		pr.step += time.Since(t2)
	}
}

// replayClosed injects each ready client's next submission between
// StepTo slices, mirroring the serve layer's closed-loop point driver.
func replayClosed(pr *pointRun, cfg sim.ServeConfig, cl *workload.ClosedLoop, end int64) {
	sys := pr.sys
	words := (cfg.RequestBytes + 7) / 8
	slice := min(max(cfg.ThinkTicks/4, 64), serveSlice)
	var due []int
	for sys.Now() < end {
		now := sys.Now()
		t0 := time.Now()
		due = due[:0]
		for {
			client, _, ok := cl.PopReady(now)
			if !ok {
				break
			}
			due = append(due, client)
		}
		target := now + slice
		if nr := cl.NextReady(); nr <= target {
			target = nr - 1
		}
		target = max(min(target, end-1), now)
		t1 := time.Now()
		for _, client := range due {
			if now >= cfg.WarmupTicks {
				pr.submitted++
			}
			if n := len(cfg.Classes); n > 0 {
				sys.InjectRNGClass(client, now, words, client%n)
			} else {
				sys.InjectRNG(client, now, words)
			}
			pr.requests++
		}
		t2 := time.Now()
		sys.StepTo(target)
		pr.arrivals += t1.Sub(t0)
		pr.inject += t2.Sub(t1)
		pr.step += time.Since(t2)
	}
}

// replayTrace steps a closed-loop trace-replay System (the figure
// drivers' path) to completion in StepTo slices, and checks that the
// result equals sim.Run's.
func replayTrace(cfg sim.RunConfig) (*pointRun, error) {
	cfg = cfg.Normalized()
	pr := &pointRun{}
	t := time.Now()
	sys := sim.NewSystem(cfg)
	pr.newSystem = time.Since(t)
	pr.sys = sys
	limit := cfg.Instructions * 2000 // sim.Run's horizon
	for !sys.Done() && sys.Now() < limit {
		t := time.Now()
		sys.StepTo(min(sys.Now()+serveSlice, limit-1))
		pr.step += time.Since(t)
	}
	if !sys.Done() {
		return nil, fmt.Errorf("trace replay of %s did not finish in %d ticks", cfg.Mix.Name, limit)
	}
	if !reflect.DeepEqual(sys.Result(), sim.Run(cfg)) {
		return nil, fmt.Errorf("trace replay of %s differs from sim.Run", cfg.Mix.Name)
	}
	return pr, nil
}

// snapshotSpans times System.Snapshot and sim.RestoreSystem on the
// replayed System, median of five, so a warm-start change has a
// per-call cost to read even though no workload checkpoints.
func snapshotSpans(sys *sim.System) (snapshot, restore time.Duration) {
	var snaps, restores []time.Duration
	for range 5 {
		t := time.Now()
		img := sys.Snapshot()
		t1 := time.Now()
		sim.RestoreSystem(img)
		restores = append(restores, time.Since(t1))
		snaps = append(snaps, t1.Sub(t))
	}
	slices.Sort(snaps)
	slices.Sort(restores)
	return snaps[2], restores[2]
}

// observeSpan times trng.HealthMonitor.ObserveWord over n words of a
// clean entropy stream, generating the words outside the timed loop.
func observeSpan(n int) time.Duration {
	m := trng.NewHealthMonitor(trng.DefaultHealthConfig())
	st := trng.NewEntropyStream(1, trng.FaultProfile{})
	buf := make([]uint64, 4096)
	var d time.Duration
	for done := 0; done < n; done += len(buf) {
		for i := range buf {
			buf[i] = st.Emit(int64(done + i))
		}
		t := time.Now()
		for _, w := range buf {
			m.ObserveWord(w)
		}
		d += time.Since(t)
	}
	return d
}
