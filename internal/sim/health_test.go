package sim

import (
	"fmt"
	"reflect"
	"testing"

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
// both mechanisms, shard counts 1/2/4, and two seeds.
func TestHealthCleanStreamNeverTripsAcrossShardCounts(t *testing.T) {
	loads := []float64{1280}
	for _, mech := range []trng.Mechanism{trng.DRaNGe(), trng.QUACTRNG()} {
		for _, shards := range []int{1, 2, 4} {
			for _, seed := range []uint64{0, 7} {
				cfg := ServeConfig{
					Design:      DesignDRStrange,
					Mech:        mech,
					WarmupTicks: 2_000,
					WindowTicks: 10_000,
					Seed:        seed,
					Shards:      shards,
				}
				if shards > 1 {
					cfg.Router = RouterJSQ
				}
				name := fmt.Sprintf("%s/shards=%d/seed=%d", mech.Name, shards, seed)
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
			shards[k] = &channelShard{idx: k, health: &shardHealth{}}
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

// TestHealthAdversaryGoldenClosure pins the sec6-adv experiment's
// qualitative shape: the buffer timing channel's advantage is positive
// while healthy, collapses to zero during quarantine (every probe
// misses — the buffer is bypassed), and returns after re-qualification.
func TestHealthAdversaryGoldenClosure(t *testing.T) {
	figs := HealthAdversary(30_000)
	if len(figs) != 1 || len(figs[0].Series) != 3 {
		t.Fatalf("HealthAdversary shape: %+v", figs)
	}
	byName := map[string][]float64{}
	for _, s := range figs[0].Series {
		byName[s.Name] = s.Values // [miss idle, miss active, advantage, bits/window]
	}
	if adv := byName["healthy"][2]; adv <= 0 {
		t.Errorf("healthy-phase advantage %v, want > 0", adv)
	}
	q := byName["quarantined"]
	if q[0] != 1 || q[1] != 1 || q[2] != 0 {
		t.Errorf("quarantine must close the channel (all probes miss): %v", q)
	}
	if adv := byName["recovered"][2]; adv <= 0 {
		t.Errorf("recovered-phase advantage %v, want > 0", adv)
	}
	again := HealthAdversary(30_000)
	if !reflect.DeepEqual(figs, again) {
		t.Errorf("HealthAdversary is not deterministic:\n first: %+v\n again: %+v", figs, again)
	}
}
