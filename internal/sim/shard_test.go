package sim

import (
	"reflect"
	"testing"

	"drstrange/internal/workload"
)

// The sharded-topology contract, tested the way the engines are: every
// observable — request records, shard stats, serve points, Results —
// must be byte-identical across engines and StepTo slicings, and (for
// shards=1) against the single-channel configuration the historical
// goldens pin.

// shardDrive injects a deterministic uneven schedule into a sharded
// System and steps it to a fixed horizon, drain ticks past the last
// arrival (always the same final tick, so post-drain snapshots like
// buffer fill are comparable across slicings), returning the completed
// request records (injection order) and the per-shard stats.
func shardDrive(t *testing.T, cfg RunConfig, n int, stepSize, drain int64) ([]InjectedRequest, []ShardStat) {
	t.Helper()
	sys := NewSystem(cfg)
	var reqs []*InjectedRequest
	at := int64(100)
	for i := 0; i < n; i++ {
		reqs = append(reqs, sys.InjectRNG(i%cfg.Clients, at, 1+i%2))
		at += int64(3 + i%29) // uneven: bursts of same-tick arrivals included
	}
	horizon := at + drain
	for cursor := int64(0); cursor < horizon; {
		cursor += stepSize
		if cursor > horizon {
			cursor = horizon
		}
		sys.StepTo(cursor - 1)
	}
	if sys.OutstandingInjections() > 0 {
		t.Fatalf("shards=%d router=%s: %d requests still outstanding at tick %d",
			cfg.Shards, cfg.Router, sys.OutstandingInjections(), horizon)
	}
	out := make([]InjectedRequest, len(reqs))
	for i, r := range reqs {
		if !r.Done {
			t.Fatalf("shards=%d router=%s: request %d never completed", cfg.Shards, cfg.Router, i)
		}
		out[i] = *r
	}
	return out, sys.ShardStats()
}

// TestShardConservation is the routing property test: for any shard
// count, router policy, and seed, every injected request is routed to
// exactly one shard and completed by it — sum(Routed) == injected ==
// sum(Completed), no shard holds live requests after the drain, and
// each record's Shard field is a valid index matching the tally, under
// both engines.
func TestShardConservation(t *testing.T) {
	const n = 150
	for _, engine := range []string{EngineEvent, EngineTicked} {
		t.Run(engine, func(t *testing.T) {
			for _, shards := range []int{1, 2, 5} {
				for _, router := range RouterNames() {
					for _, seed := range []uint64{0, 7} {
						cfg := RunConfig{
							Design:       DesignDRStrange,
							Instructions: serveTarget,
							Clients:      4,
							Seed:         seed,
							Shards:       shards,
							Router:       router,
							Engine:       engine,
						}
						recs, stats := shardDrive(t, cfg, n, 1<<40, 200_000)
						if len(stats) != shards {
							t.Fatalf("shards=%d router=%s: ShardStats has %d entries", shards, router, len(stats))
						}
						perShard := make([]int64, shards)
						for i, r := range recs {
							if r.Shard < 0 || r.Shard >= shards {
								t.Fatalf("shards=%d router=%s: request %d routed to shard %d", shards, router, i, r.Shard)
							}
							perShard[r.Shard]++
						}
						var routed, completed int64
						for k, st := range stats {
							routed += st.Routed
							completed += st.Completed
							if st.Live != 0 {
								t.Errorf("shards=%d router=%s: shard %d has %d live requests after drain", shards, router, k, st.Live)
							}
							if st.Routed != perShard[k] {
								t.Errorf("shards=%d router=%s: shard %d Routed=%d but %d records carry it",
									shards, router, k, st.Routed, perShard[k])
							}
						}
						if routed != n || completed != n {
							t.Errorf("shards=%d router=%s seed=%d: routed=%d completed=%d, want %d each",
								shards, router, seed, routed, completed, n)
						}
					}
				}
			}
		})
	}
}

// TestShardInjectionDifferential extends the injection-port engine
// differential to sharded topologies: request records (including the
// routing decision in Shard) and shard stats must be identical under
// the ticked engine, the event engine, and chunked slicing, for every
// router policy. The shard counts span the event loop's next-event
// selection: one shard, a pair, an odd count, and a fleet where most
// shards sit idle while the event pass skips them, so every skipped
// shard's cached bound must still reach the minimum. One shard never
// routes, so it runs one router. The 64-shard case runs without the mcf
// background and drains 20,000 ticks instead of 200,000: the ticked
// reference steps every shard on every tick, so either would multiply
// its cost by the shard count.
func TestShardInjectionDifferential(t *testing.T) {
	mcf := workload.Mix{Name: "mcf", Apps: []string{"mcf"}}
	for _, tc := range []struct {
		shards int
		mix    workload.Mix
		drain  int64
	}{
		{1, mcf, 200_000},
		{2, mcf, 200_000},
		{7, mcf, 200_000},
		{64, workload.Mix{}, 20_000},
	} {
		routers := RouterNames()
		if tc.shards == 1 {
			routers = routers[:1]
		}
		for _, router := range routers {
			cfg := RunConfig{
				Design:       DesignDRStrange,
				Mix:          tc.mix,
				Instructions: serveTarget,
				Clients:      4,
				Shards:       tc.shards,
				Router:       router,
			}
			type snap struct {
				recs  []InjectedRequest
				stats []ShardStat
			}
			run := func(engine string, stepSize int64) snap {
				c := cfg
				c.Engine = engine
				recs, stats := shardDrive(t, c, 120, stepSize, tc.drain)
				return snap{recs, stats}
			}
			ticked := run(EngineTicked, 1<<40)
			event := run(EngineEvent, 1<<40)
			chunked := run(EngineEvent, 101)
			if !reflect.DeepEqual(ticked, event) {
				t.Errorf("shards=%d %s: sharded injections diverge between engines", tc.shards, router)
			}
			if !reflect.DeepEqual(event, chunked) {
				t.Errorf("shards=%d %s: sharded injections depend on StepTo slicing", tc.shards, router)
			}
		}
	}
}

// TestShardStepToSegments extends the steppable-core property test to
// sharded closed-loop runs: slicing a multi-shard run into prime-sized
// StepTo chunks must produce a deeply equal Result under both engines.
func TestShardStepToSegments(t *testing.T) {
	cfg := RunConfig{
		Design:       DesignDRStrange,
		Mix:          workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120},
		Instructions: 4000,
		Shards:       3,
	}
	run := func(engine string) RunResult {
		c := cfg
		c.Engine = engine
		sys := NewSystem(c)
		sys.StepTo(cfg.Instructions*2000 - 1)
		if !sys.Done() {
			t.Fatal("whole run never completed")
		}
		return sys.Result()
	}
	chunked := func(engine string) RunResult {
		c := cfg
		c.Engine = engine
		sys := NewSystem(c)
		var cursor int64
		for !sys.Done() {
			cursor += 997
			sys.StepTo(cursor - 1)
			if cursor > cfg.Instructions*2000 {
				t.Fatal("chunked run never completed")
			}
		}
		return sys.Result()
	}
	ref := run(EngineTicked)
	for _, engine := range []string{EngineTicked, EngineEvent} {
		whole := run(engine)
		sliced := chunked(engine)
		if !reflect.DeepEqual(ref, whole) {
			t.Errorf("%s: sharded Result diverges from the ticked reference", engine)
		}
		if !reflect.DeepEqual(whole, sliced) {
			t.Errorf("%s: sharded Result depends on StepTo slicing", engine)
		}
	}
}

// TestServeShardedDifferential pins the full open-loop path on a
// sharded topology: the measured ServePoints (latency percentiles,
// hit rates, per-shard stats) must be identical across engines, and a
// single-shard sweep must be deeply equal to the historical
// default-config sweep (Shards/Router left zero).
func TestServeShardedDifferential(t *testing.T) {
	cfg := ServeConfig{
		Design:      DesignDRStrange,
		Background:  workload.Mix{Name: "mcf", Apps: []string{"mcf"}},
		WarmupTicks: 5_000,
		WindowTicks: 20_000,
		Seed:        3,
		Shards:      4,
		Router:      RouterJSQ,
	}
	loads := []float64{1280, 5120}
	cfg.Engine = EngineTicked
	ticked := ServeLoad(cfg, loads)
	cfg.Engine = EngineEvent
	event := ServeLoad(cfg, loads)
	if !reflect.DeepEqual(event, ticked) {
		t.Errorf("sharded serve points diverge between engines\n event:  %+v\n ticked: %+v", event, ticked)
	}
	for _, pt := range event {
		if pt.Shards != 4 || pt.Router != RouterJSQ || len(pt.PerShard) != 4 {
			t.Fatalf("sharded point missing topology stats: %+v", pt)
		}
	}

	// shards=1, explicitly set with a non-default router, must match
	// the single-channel default bit for bit: the router never runs
	// with one shard, and ServePoint's topology fields stay zero.
	single := cfg
	single.Shards, single.Router = 1, RouterSticky
	legacy := cfg
	legacy.Shards, legacy.Router = 0, ""
	one := ServeLoad(single, loads)
	zero := ServeLoad(legacy, loads)
	for i := range one {
		// Router differs by construction ("sticky" vs defaulted
		// "round-robin") but is irrelevant at one shard and unset on
		// single-shard points; everything measured must match.
		if !reflect.DeepEqual(one[i], zero[i]) {
			t.Errorf("explicit shards=1 diverges from the default single-channel sweep at %gMb/s\n one:  %+v\n zero: %+v",
				loads[i], one[i], zero[i])
		}
		if one[i].Shards != 0 || one[i].Router != "" || one[i].PerShard != nil {
			t.Errorf("single-shard point carries topology stats: %+v", one[i])
		}
	}
}

// TestRouterPolicies pins each policy's deterministic choice on
// hand-built shard states.
func TestRouterPolicies(t *testing.T) {
	mk := func(lives ...int) []*channelShard {
		out := make([]*channelShard, len(lives))
		for i, l := range lives {
			out[i] = &channelShard{live: l}
		}
		return out
	}
	ir := func(client int) *InjectedRequest { return &InjectedRequest{Client: client} }

	rr, _ := newRoutePolicy(RouterRoundRobin)
	shards := mk(0, 0, 0)
	for i := 0; i < 7; i++ {
		if got := rr.pick(shards, ir(0)); got != i%3 {
			t.Fatalf("round-robin pick %d = %d, want %d", i, got, i%3)
		}
	}

	jsq, _ := newRoutePolicy(RouterJSQ)
	if got := jsq.pick(mk(5, 2, 2, 9), ir(0)); got != 1 {
		t.Errorf("jsq = %d, want 1 (least live, lowest index on tie)", got)
	}

	// With every buffer empty (no controller attached), buffer-aware
	// degrades to least-live.
	ba, _ := newRoutePolicy(RouterBufferAware)
	if got := ba.pick(mk(4, 1, 3), ir(0)); got != 1 {
		t.Errorf("buffer-aware on empty buffers = %d, want 1 (jsq fallback)", got)
	}

	sticky, _ := newRoutePolicy(RouterSticky)
	for client := 0; client < 6; client++ {
		if got := sticky.pick(mk(9, 0, 0), ir(client)); got != client%3 {
			t.Errorf("sticky client %d = %d, want %d", client, got, client%3)
		}
	}

	if _, ok := newRoutePolicy("zipf"); ok {
		t.Error("newRoutePolicy accepted an unknown name")
	}
}
