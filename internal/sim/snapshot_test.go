package sim

import (
	"reflect"
	"testing"

	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// Checkpointed warm starts are proven the way the engines are: restore
// must be indistinguishable from replay. Every test here snapshots a
// running System, forks it, and requires the fork's observable future —
// request records, shard stats, health counters, closed-loop Results,
// serve points — to be deeply equal to the original's, across both
// engines.

// snapFingerprint is everything observable about a System's tail run.
type snapFingerprint struct {
	recs   []InjectedRequest
	stats  []ShardStat
	health ServeHealth
	now    int64
	out    int
	rec    int64
}

// snapshotTail drives sys from its current tick to horizon: a
// deterministic injection schedule derived from the starting tick,
// completions collected by value through the hook (so original and
// restored handles compare equal), stepped in stepSize slices.
func snapshotTail(t *testing.T, sys *System, horizon, stepSize int64) snapFingerprint {
	t.Helper()
	var fp snapFingerprint
	sys.OnInjectionComplete(func(ir *InjectedRequest) { fp.recs = append(fp.recs, *ir) })
	at := sys.Now() + 50
	if n := len(sys.sched); n > 0 && at < sys.sched[n-1].SubmitTick {
		at = sys.sched[n-1].SubmitTick // arrivals must stay time-ordered
	}
	for i := 0; i < 80 && at < horizon-30_000; i++ {
		sys.InjectRNG(i%sys.cfg.Clients, at, 1+i%3)
		at += int64(7 + i%23)
	}
	for cursor := sys.Now(); cursor < horizon; {
		cursor += stepSize
		if cursor > horizon {
			cursor = horizon
		}
		sys.StepTo(cursor - 1)
	}
	fp.stats = sys.ShardStats()
	fp.health = sys.HealthStats(horizon)
	fp.now = sys.Now()
	fp.out = sys.OutstandingInjections()
	fp.rec = sys.RecycledInjections()
	return fp
}

// snapshotPrefix builds a System mid-flight: a deterministic arrival
// schedule injected and stepped to prefixTicks, with requests still
// outstanding when the caller snapshots.
func snapshotPrefix(cfg RunConfig, prefixTicks int64) *System {
	cfg.normalize()
	sys := NewSystem(cfg)
	at := int64(100)
	for i := 0; i < 60; i++ {
		sys.InjectRNG(i%cfg.Clients, at, 1+i%2)
		at += int64(3 + i%29)
	}
	sys.StepTo(prefixTicks - 1)
	return sys
}

// TestSnapshotRestoreEqualsReplay is the core differential: snapshot a
// mid-flight System (requests outstanding, buffers partially drained,
// health monitors mid-window), then run the original and a restored
// fork to the same horizon — under different StepTo slicings — and
// require identical futures. Runs both engines over a plain
// single-shard config and a sharded health+fault config.
func TestSnapshotRestoreEqualsReplay(t *testing.T) {
	cases := []RunConfig{
		{
			Design:       DesignDRStrange,
			Mix:          workload.Mix{Name: "mcf", Apps: []string{"mcf"}},
			Instructions: serveTarget,
			Clients:      4,
		},
		{
			Design:       DesignDRStrange,
			Instructions: serveTarget,
			Clients:      4,
			Shards:       3,
			Router:       RouterJSQ,
			Health:       trng.DefaultHealthConfig(),
			Fault:        trng.DefaultFaultProfile(trng.FaultBiasRamp),
		},
	}
	for _, engine := range []string{EngineTicked, EngineEvent} {
		for ci, cfg := range cases {
			const prefix, horizon = 2_000, 90_000
			cfg.Engine = engine
			sys := snapshotPrefix(cfg, prefix)
			img := sys.Snapshot()
			if img.Now() != sys.Now() || img.Shards() != sys.Shards() {
				t.Fatalf("case %d %s: image reports now=%d shards=%d, system has now=%d shards=%d",
					ci, engine, img.Now(), img.Shards(), sys.Now(), sys.Shards())
			}
			orig := snapshotTail(t, sys, horizon, 1<<40)
			restored := snapshotTail(t, RestoreSystem(img), horizon, 257)
			if !reflect.DeepEqual(orig, restored) {
				t.Errorf("case %d %s: restored future diverges from replay\n orig:     %+v\n restored: %+v",
					ci, engine, orig, restored)
			}
		}
	}
}

// TestSnapshotMidQuarantine snapshots at the hardest possible moment:
// inside an open quarantine, with the monitor tripped, downtime
// accruing, and waiting requests racing the fail deadline. The restored
// fork must recover at the same tick, fail the same requests, and
// report identical availability.
func TestSnapshotMidQuarantine(t *testing.T) {
	cfg := RunConfig{
		Design:       DesignDRStrange,
		Instructions: serveTarget,
		Clients:      2,
		Shards:       2,
		Health:       trng.DefaultHealthConfig(),
		Fault: trng.FaultProfile{
			Kind:      trng.FaultBiasRamp,
			StartTick: 1_000,
			RampTicks: 1_000,
			Bias:      0.99,
		},
	}
	cfg.normalize()
	sys := NewSystem(cfg)
	sys.SetAvailabilityWindow(0, 1<<40)
	// A steady drain keeps generation rounds (and so monitor words)
	// flowing until the ramped bias trips a shard.
	at := int64(200)
	for i := 0; i < 300; i++ {
		sys.InjectRNG(i%cfg.Clients, at, 1)
		at += 97
	}
	tripped := func() bool {
		for _, sh := range sys.shards {
			if sh.health != nil && sh.health.tripped {
				return true
			}
		}
		return false
	}
	for !tripped() {
		if sys.Now() > 200_000 {
			t.Fatal("no shard tripped within 200k ticks; fault profile too weak for the test")
		}
		sys.StepTo(sys.Now() + 499)
	}

	img := sys.Snapshot()
	horizon := sys.Now() + trng.DefaultHealthConfig().RequalTicks + 60_000
	orig := snapshotTail(t, sys, horizon, 1<<40)
	restored := snapshotTail(t, RestoreSystem(img), horizon, 503)
	if !reflect.DeepEqual(orig, restored) {
		t.Errorf("mid-quarantine restore diverges from replay\n orig:     %+v\n restored: %+v", orig, restored)
	}
	if orig.health.Trips == 0 || orig.health.DowntimeTicks == 0 {
		t.Errorf("test never exercised a quarantine: %+v", orig.health)
	}
}

// TestSnapshotForkByteIdentical pins image immutability: one image
// forks any number of instances, every fork's future is byte-identical,
// and forking again after other forks have run (and mutated their own
// state) still matches — including the original System continued past
// its own snapshot.
func TestSnapshotForkByteIdentical(t *testing.T) {
	cfg := RunConfig{
		Design:       DesignDRStrange,
		Mix:          workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120},
		Instructions: 6_000,
	}
	cfg.normalize()
	sys := NewSystem(cfg)
	sys.StepTo(2_999)
	img := sys.Snapshot()

	finish := func(s *System) RunResult {
		s.StepTo(cfg.Instructions*2000 - 1)
		if !s.Done() {
			t.Fatal("run never completed")
		}
		return s.Result()
	}
	ref := finish(sys) // the original, continued past its snapshot
	for i := 0; i < 4; i++ {
		if got := finish(RestoreSystem(img)); !reflect.DeepEqual(ref, got) {
			t.Errorf("fork %d diverges from the continued original\n ref: %+v\n got: %+v", i, ref, got)
		}
	}
}

// TestServeCheckpointSnapshotInvisible pins the serve-layer periodic
// checkpoint/resume: a point that snapshots and restores itself every
// Checkpoint ticks must produce byte-identical ServePoints to an
// uninterrupted run — cold, warm, and through a sharded quarantine.
func TestServeCheckpointSnapshotInvisible(t *testing.T) {
	base := ServeConfig{
		Design:      DesignDRStrange,
		Background:  workload.Mix{Name: "mcf", Apps: []string{"mcf"}},
		WarmupTicks: 4_000,
		WindowTicks: 16_000,
		Seed:        3,
	}
	degraded := base
	degraded.Shards, degraded.Router = 3, RouterJSQ
	degraded.Health, degraded.Fault = "on", trng.FaultBiasRamp
	warm := base
	warm.Warm = "on"
	loads := []float64{640, 2560}

	cases := []struct {
		name string
		cfg  ServeConfig
	}{
		{"cold", base},
		{"degraded", degraded},
		{"warm", warm},
	}
	for _, tc := range cases {
		ckpt := tc.cfg
		ckpt.Checkpoint = 3_000
		plain := ServeLoad(tc.cfg, loads)
		chk := ServeLoad(ckpt, loads)
		if !reflect.DeepEqual(plain, chk) {
			t.Errorf("%s: checkpointing changed the serve points\n plain: %+v\n ckpt:  %+v", tc.name, plain, chk)
		}
	}
}

// TestServeWarmSnapshotDifferential pins the warm-start sweep itself:
// repeated warm sweeps (the second forking the memoized image) and both
// engines must produce identical ServePoints, and the points must
// measure real traffic.
func TestServeWarmSnapshotDifferential(t *testing.T) {
	cfg := ServeConfig{
		Design:      DesignDRStrange,
		Background:  workload.Mix{Name: "mcf", Apps: []string{"mcf"}},
		WarmupTicks: 5_000,
		WindowTicks: 20_000,
		Seed:        3,
		Warm:        "on",
	}
	sharded := cfg
	sharded.Shards, sharded.Router = 3, RouterJSQ
	sharded.Health, sharded.Fault = "on", trng.FaultBiasRamp
	loads := []float64{1280, 5120}

	for name, c := range map[string]ServeConfig{"single": cfg, "sharded": sharded} {
		c.Engine = EngineEvent
		first := ServeLoad(c, loads)
		memoized := ServeLoad(c, loads) // forks the image the first sweep built
		c.Engine = EngineTicked
		ticked := ServeLoad(c, loads)
		if !reflect.DeepEqual(first, memoized) {
			t.Errorf("%s: memoized warm image changes the sweep\n first: %+v\n memo:  %+v", name, first, memoized)
		}
		if !reflect.DeepEqual(first, ticked) {
			t.Errorf("%s: warm sweep diverges between engines\n event:  %+v\n ticked: %+v", name, first, ticked)
		}
		for i, pt := range first {
			if pt.Submitted == 0 || pt.Completed == 0 {
				t.Errorf("%s: warm point %d measured no traffic: %+v", name, i, pt)
			}
		}
	}
}
