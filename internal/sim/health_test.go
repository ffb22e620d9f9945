package sim

import (
	"fmt"
	"reflect"
	"testing"

	"drstrange/internal/core"
	"drstrange/internal/trng"
)

// The serve-level health contract: monitoring a clean stream is
// invisible (identical points, zero trips) across mechanisms, shard
// counts, and seeds; and under every fault profile the trip/recovery/
// availability story is byte-identical across engines.

// stripHealth returns the points with their Health pointers removed and
// the per-shard FirstTripTick sentinel (-1 on monitored never-tripped
// shards, 0 unmonitored) normalized, for comparison against an
// unmonitored run.
func stripHealth(pts []ServePoint) []ServePoint {
	out := make([]ServePoint, len(pts))
	for i, pt := range pts {
		pt.Health = nil
		shards := make([]ShardStat, len(pt.PerShard))
		for j, sh := range pt.PerShard {
			sh.FirstTripTick = 0
			shards[j] = sh
		}
		if pt.PerShard != nil {
			pt.PerShard = shards
		}
		out[i] = pt
	}
	return out
}

// TestHealthCleanStreamNeverTripsAcrossShardCounts is the false-positive
// gate: with no fault injected, health monitoring must never trip — and
// every measured quantity must equal the monitoring-off run exactly, for
// both engines, both mechanisms, shard counts 1/2/4, and two seeds.
func TestHealthCleanStreamNeverTripsAcrossShardCounts(t *testing.T) {
	loads := []float64{1280}
	for _, engine := range []string{EngineEvent, EngineTicked} {
		for _, mech := range []trng.Mechanism{trng.DRaNGe(), trng.QUACTRNG()} {
			for _, shards := range []int{1, 2, 4} {
				for _, seed := range []uint64{0, 7} {
					cfg := ServeConfig{
						Design:      DesignDRStrange,
						Mech:        mech,
						Engine:      engine,
						WarmupTicks: 2_000,
						WindowTicks: 10_000,
						Seed:        seed,
						Shards:      shards,
					}
					if shards > 1 {
						cfg.Router = RouterJSQ
					}
					name := fmt.Sprintf("%s/%s/shards=%d/seed=%d", engine, mech.Name, shards, seed)
					off := ServeLoad(cfg, loads)
					on := cfg
					on.Health = "on"
					monitored := ServeLoad(on, loads)
					for _, pt := range monitored {
						h := pt.Health
						if h == nil {
							t.Fatalf("%s: monitored point carries no health stats", name)
						}
						if h.Trips != 0 || h.DowntimeTicks != 0 || h.FailedRequests != 0 || h.ReroutedRequests != 0 {
							t.Errorf("%s: clean stream tripped: %+v", name, h)
						}
						for _, sh := range pt.PerShard {
							if sh.Trips != 0 || sh.FirstTripTick != -1 {
								t.Errorf("%s: shard %d reports trips on a clean stream: %+v", name, sh.Shard, sh)
							}
						}
					}
					if !reflect.DeepEqual(stripHealth(monitored), stripHealth(off)) {
						t.Errorf("%s: monitoring a clean stream changed the measurement\n on:  %+v\n off: %+v",
							name, stripHealth(monitored), stripHealth(off))
					}
				}
			}
		}
	}
}

// TestHealthTripTickByteIdenticalEngines pins degraded-mode
// determinism: under every fault profile, the full serve points — trip
// counts, first-trip ticks, downtime, failures, reroutes, latencies —
// must be deeply equal across both engines.
func TestHealthTripTickByteIdenticalEngines(t *testing.T) {
	loads := []float64{2560}
	for _, fault := range trng.FaultNames() {
		cfg := ServeConfig{
			Design:      DesignDRStrange,
			WarmupTicks: 5_000,
			WindowTicks: 40_000,
			Seed:        3,
			Shards:      4,
			Router:      RouterJSQ,
			Health:      "on",
			Fault:       fault,
		}
		cfg.Engine = EngineEvent
		ref := ServeLoad(cfg, loads)
		for _, pt := range ref {
			if pt.Health == nil || pt.Health.Trips == 0 {
				t.Fatalf("%s: fault produced no trips: %+v", fault, pt.Health)
			}
			tripped := false
			for _, sh := range pt.PerShard {
				if sh.Trips > 0 {
					tripped = true
					if sh.FirstTripTick < 0 {
						t.Errorf("%s: shard %d tripped without a first-trip tick", fault, sh.Shard)
					}
				}
			}
			if !tripped {
				t.Errorf("%s: aggregate trips but no shard reports one", fault)
			}
		}
		cfg.Engine = EngineTicked
		pts := ServeLoad(cfg, loads)
		if !reflect.DeepEqual(pts, ref) {
			t.Errorf("%s: degraded serve points diverge under the ticked engine\n got: %+v\n ref: %+v", fault, pts, ref)
		}
	}
}

// TestStickyFailoverOrderShardTrip pins the sticky router's defined
// degraded-dispatch order: a tripped home shard fails over to the first
// healthy shard in ascending wrap-around order from home, and the
// client returns home the moment the home shard re-qualifies.
func TestStickyFailoverOrderShardTrip(t *testing.T) {
	mk := func(trippedShards ...int) []*channelShard {
		shards := make([]*channelShard, 4)
		for k := range shards {
			shards[k] = &channelShard{health: &shardHealth{}}
		}
		for _, k := range trippedShards {
			shards[k].health.tripped = true
		}
		return shards
	}
	var p stickyPolicy
	cases := []struct {
		name         string
		shards       []*channelShard
		client       int
		want         int
		wantRerouted bool
	}{
		{"home healthy", mk(), 2, 2, false},
		{"home tripped, next up", mk(2), 2, 3, true},
		{"home and next tripped", mk(2, 3), 2, 0, true},
		{"wrap past tripped zero", mk(3, 0), 3, 1, true},
		{"only one healthy left", mk(0, 1, 3), 1, 2, true},
		{"client wraps mod shards", mk(1), 5, 2, true},
		{"recovered home reclaims", mk(), 5, 1, false},
	}
	for _, tc := range cases {
		ir := &InjectedRequest{Client: tc.client}
		got, rerouted := p.pickHealthy(tc.shards, ir)
		if got != tc.want || rerouted != tc.wantRerouted {
			t.Errorf("%s: pickHealthy(client=%d) = (%d, %v), want (%d, %v)",
				tc.name, tc.client, got, rerouted, tc.want, tc.wantRerouted)
		}
	}
}

// TestScoreFailoverShardTrip pins the score-based routers' degraded
// dispatch: jsq and buffer-aware score only the healthy shards, break
// ties toward the lowest index, and report a request as rerouted exactly
// when the unrestricted pick would have landed on a tripped shard.
func TestScoreFailoverShardTrip(t *testing.T) {
	// mk builds four shards with the given live counts and buffered
	// words; the listed shards are tripped.
	mk := func(live, words [4]int, trippedShards ...int) []*channelShard {
		shards := make([]*channelShard, 4)
		for k := range shards {
			buf := core.NewRandBuffer(16)
			buf.AddBits(float64(64 * words[k]))
			shards[k] = &channelShard{health: &shardHealth{}, live: live[k]}
			shards[k].mcfg.Buffer = buf
		}
		for _, k := range trippedShards {
			shards[k].health.tripped = true
		}
		return shards
	}
	none := [4]int{}
	cases := []struct {
		name         string
		router       string
		shards       []*channelShard
		want         int
		wantRerouted bool
	}{
		{"jsq fewest live", RouterJSQ, mk([4]int{3, 2, 1, 4}, none), 2, false},
		{"jsq tie to lowest index", RouterJSQ, mk([4]int{2, 1, 3, 1}, none), 1, false},
		{"jsq tripped loser", RouterJSQ, mk([4]int{3, 1, 2, 1}, none, 0), 1, false},
		{"jsq tripped winner", RouterJSQ, mk([4]int{3, 1, 2, 1}, none, 1), 3, true},
		{"jsq tie past tripped zero", RouterJSQ, mk([4]int{1, 1, 5, 5}, none, 0), 1, true},
		{"jsq only one healthy", RouterJSQ, mk([4]int{0, 0, 9, 0}, none, 0, 1, 3), 2, true},
		{"buffer most words", RouterBufferAware, mk(none, [4]int{2, 5, 3, 1}), 1, false},
		{"buffer word tie to fewest live", RouterBufferAware, mk([4]int{0, 3, 1, 0}, [4]int{2, 5, 5, 1}), 2, false},
		{"buffer full tie to lowest index", RouterBufferAware, mk([4]int{1, 1, 1, 1}, [4]int{4, 4, 4, 4}), 0, false},
		{"buffer empty fleet acts as jsq", RouterBufferAware, mk([4]int{3, 2, 2, 5}, none), 1, false},
		{"buffer tripped loser", RouterBufferAware, mk([4]int{0, 3, 1, 0}, [4]int{2, 5, 5, 1}, 0), 2, false},
		{"buffer tripped winner", RouterBufferAware, mk([4]int{0, 3, 1, 0}, [4]int{2, 5, 5, 1}, 2), 1, true},
		{"buffer tie past tripped zero", RouterBufferAware, mk([4]int{1, 1, 1, 0}, [4]int{3, 3, 3, 0}, 0), 1, true},
		{"buffer only one healthy", RouterBufferAware, mk(none, [4]int{9, 9, 0, 9}, 0, 1, 3), 2, true},
	}
	for _, tc := range cases {
		p, _ := newRoutePolicy(tc.router)
		got, rerouted := p.pickHealthy(tc.shards, &InjectedRequest{})
		if got != tc.want || rerouted != tc.wantRerouted {
			t.Errorf("%s: pickHealthy = (%d, %v), want (%d, %v)", tc.name, got, rerouted, tc.want, tc.wantRerouted)
		}
	}
}

// TestHealthAdversaryGoldenClosure pins the sec6-adv experiment's
// qualitative shape under both engines: the buffer timing channel's
// advantage is positive while healthy, collapses to zero during
// quarantine (every probe misses — the buffer is bypassed), and returns
// after re-qualification.
func TestHealthAdversaryGoldenClosure(t *testing.T) {
	for _, engine := range []string{EngineEvent, EngineTicked} {
		base := RunConfig{Instructions: 30_000, Engine: engine}
		figs := HealthAdversary(base)
		if len(figs) != 1 || len(figs[0].Series) != 3 {
			t.Fatalf("%s: HealthAdversary shape: %+v", engine, figs)
		}
		byName := map[string][]float64{}
		for _, s := range figs[0].Series {
			byName[s.Name] = s.Values // [miss idle, miss active, advantage, bits/window]
		}
		if adv := byName["healthy"][2]; adv <= 0 {
			t.Errorf("%s: healthy-phase advantage %v, want > 0", engine, adv)
		}
		q := byName["quarantined"]
		if q[0] != 1 || q[1] != 1 || q[2] != 0 {
			t.Errorf("%s: quarantine must close the channel (all probes miss): %v", engine, q)
		}
		if adv := byName["recovered"][2]; adv <= 0 {
			t.Errorf("%s: recovered-phase advantage %v, want > 0", engine, adv)
		}
		again := HealthAdversary(base)
		if !reflect.DeepEqual(figs, again) {
			t.Errorf("%s: HealthAdversary is not deterministic:\n first: %+v\n again: %+v", engine, figs, again)
		}
	}
}

// TestRequalifyAtRecoversUnderEventEngine: moving a quarantined shard's
// re-qualification to the current tick must take effect at that tick.
// The shard's cached event bound was computed against the old recovery
// tick, so unless requalifyAt lowers it the event engine skips past the
// recovery.
func TestRequalifyAtRecoversUnderEventEngine(t *testing.T) {
	s := NewSystem(RunConfig{
		Design:  DesignDRStrangeNoPred,
		Clients: 1,
		Health:  trng.DefaultHealthConfig(),
		Fault:   trng.FaultProfile{Kind: trng.FaultBurst, PeriodTicks: 1 << 40, BurstTicks: 1 << 40},
		Engine:  EngineEvent,
	})
	sh := s.shards[0]
	s.StepTo(2_000) // the buffer fill's first rounds trip the monitor
	if !sh.health.tripped {
		t.Fatal("an all-zero word stream did not trip the monitor")
	}
	sh.health.suspectUntil = farFuture
	// Right after serving a word on demand the controller is still
	// leaving RNG mode, its next event a few ticks ahead.
	ir := s.InjectRNG(0, s.Now(), 1)
	for !ir.Done {
		s.Step()
	}
	now := s.Now()
	if sh.bound <= now {
		t.Fatalf("cached bound %d is not ahead of now %d: the check below would pass without the refresh", sh.bound, now)
	}
	s.requalifyAt(sh, now)
	s.StepTo(now)
	if sh.health.tripped {
		t.Errorf("shard still quarantined after requalifyAt(%d) and StepTo(%d); cached bound %d", now, now, sh.bound)
	}
}

// TestFailDeadlineReachesLowerPriorityBands: the quarantine fail
// deadline bounds every waiting request's wait, not only the queue
// head's. A tripped shard's queue is priority-ordered, so a steady
// standard stream keeps a younger request at the head while the bulk
// requests behind it age; they must still fail once they have waited
// FailDeadlineTicks (they used to wait indefinitely).
func TestFailDeadlineReachesLowerPriorityBands(t *testing.T) {
	std, _ := ClassByName(ClassStandard)
	bulk, _ := ClassByName(ClassBulk)
	for _, engine := range []string{EngineEvent, EngineTicked} {
		s := NewSystem(RunConfig{
			Design:  DesignDRStrange,
			Clients: 1,
			Health:  trng.DefaultHealthConfig(),
			Classes: []RequestClass{std, bulk},
			Engine:  engine,
		})
		sh := s.shards[0]
		s.tripShard(sh, 0)
		sh.health.suspectUntil = farFuture
		var bulks []*InjectedRequest
		for range 40 {
			bulks = append(bulks, s.InjectRNGClass(0, 1, 1, 1))
		}
		for at := int64(2); at < 30_000; at++ {
			s.InjectRNGClass(0, at, 1, 0)
		}
		s.StepTo(30_000)
		failed := 0
		for _, ir := range bulks {
			switch {
			case ir.Failed:
				failed++
				if want := int64(1 + trng.FailDeadlineTicks); ir.FinishTick != want {
					t.Errorf("%s: bulk request failed at tick %d, want %d", engine, ir.FinishTick, want)
				}
			case ir.wordsSubmitted == 0:
				t.Errorf("%s: bulk request still waiting at tick %d, %d ticks after it arrived",
					engine, s.Now(), s.Now()-ir.SubmitTick)
			}
		}
		if failed != 8 {
			t.Errorf("%s: %d bulk requests failed, want the 8 that never entered the controller", engine, failed)
		}
		for _, ir := range sh.waiting[sh.waitHead:] {
			if ir.wordsSubmitted == 0 && s.Now()-ir.SubmitTick >= trng.FailDeadlineTicks {
				t.Errorf("%s: request from tick %d still waiting at tick %d", engine, ir.SubmitTick, s.Now())
			}
		}
	}
}

// TestTripPurgesEveryBufferPartition: a trip discards every word the
// failing stream produced, in every partition of a partitioned buffer,
// so none of them is served after re-qualification. (The purge used to
// drain only partition 0, leaving client 1's reserve intact.)
func TestTripPurgesEveryBufferPartition(t *testing.T) {
	for _, engine := range []string{EngineEvent, EngineTicked} {
		p := newWordPort(partitionBuffer(RunConfig{
			Design:  DesignDRStrangeNoPred,
			Clients: 2,
			Health:  trng.DefaultHealthConfig(),
			Engine:  engine,
		}))
		p.idle(secWarmTicks)
		sh := p.sys.shards[0]
		buf := p.sys.Controller().Config().Buffer
		if n := buf.Words(); n != 16 {
			t.Fatalf("%s: warm buffer holds %d words, want 16", engine, n)
		}
		p.sys.tripShard(sh, p.sys.Now())
		if n := buf.Words(); n != 0 {
			t.Errorf("%s: %d words left in the buffer after the trip", engine, n)
		}
		p.sys.requalifyAt(sh, p.sys.Now())
		p.sys.Step()
		if p.request(1) {
			t.Errorf("%s: client 1's first request after recovery was a buffer hit", engine)
		}
	}
}
