package sim

import (
	"context"
	"reflect"
	"testing"
)

// The request-class / admission-control contract: every routed request
// ends in exactly one of {completed, shed, deadline-missed}, the
// accounting identity holds per shard under every policy and topology,
// and the closed-loop serve path replays byte-identically across
// engines and worker counts.

// classDrive injects an overloading classed burst (one request per
// tick, cycling the configured classes) and steps the System until the
// backlog fully drains, returning the request records and shard stats.
func classDrive(t *testing.T, cfg RunConfig, n int) ([]InjectedRequest, []ShardStat) {
	t.Helper()
	sys := NewSystem(cfg)
	var reqs []*InjectedRequest
	at := int64(100)
	for i := 0; i < n; i++ {
		cls := i % len(cfg.Classes)
		reqs = append(reqs, sys.InjectRNGClass(i%cfg.Clients, at, 1+i%2, cls))
		at++ // ~10x the D-RaNGe service rate: the backlog must build
	}
	sys.StepTo(at + 500_000)
	if sys.OutstandingInjections() > 0 {
		t.Fatalf("shards=%d admission=%s: %d requests still outstanding after drain",
			cfg.Shards, cfg.Admission, sys.OutstandingInjections())
	}
	out := make([]InjectedRequest, len(reqs))
	for i, r := range reqs {
		if !r.Done {
			t.Fatalf("shards=%d admission=%s: request %d never finished", cfg.Shards, cfg.Admission, i)
		}
		out[i] = *r
	}
	return out, sys.ShardStats()
}

// TestClassAdmissionConservation is the overload property test: for
// every admission policy × class set × shard count, each routed request
// resolves to exactly one terminal state and the per-shard identity
// Routed == Completed + Shed + DeadlineMissed holds after the drain
// (Live is zero, and health is off so nothing Failed). Policy
// semantics ride along: none never sheds, drop-lowest-class sheds only
// the lowest-priority class, and a class without a deadline never
// misses one.
func TestClassAdmissionConservation(t *testing.T) {
	const n = 600
	classSets := [][]RequestClass{
		classTable([]string{ClassKeygen, ClassBulk}),
		classTable([]string{ClassKeygen, ClassStandard, ClassBulk}),
	}
	for _, classes := range classSets {
		for _, admission := range AdmissionNames() {
			for _, shards := range []int{1, 4} {
				cfg := RunConfig{
					Design:       DesignDRStrange,
					Instructions: serveTarget,
					Clients:      4,
					Seed:         7,
					Shards:       shards,
					Router:       RouterJSQ,
					Classes:      classes,
					Admission:    admission,
				}
				recs, stats := classDrive(t, cfg, n)

				perShard := make([]struct{ routed, completed, shed, missed int64 }, shards)
				for i, r := range recs {
					if r.Shard < 0 || r.Shard >= shards {
						t.Fatalf("admission=%s shards=%d: request %d on shard %d", admission, shards, i, r.Shard)
					}
					ps := &perShard[r.Shard]
					ps.routed++
					cls := classes[r.Class]
					switch {
					case r.Shed && r.Missed:
						t.Fatalf("admission=%s: request %d both shed and deadline-missed", admission, i)
					case r.Shed:
						ps.shed++
						if admission == AdmissionNone {
							t.Fatalf("admission=none shed request %d", i)
						}
						if admission == AdmissionDropLowest && cls.Name != ClassBulk {
							t.Fatalf("drop-lowest-class shed a priority-%d %s request", cls.Priority, cls.Name)
						}
					case r.Missed:
						ps.missed++
						if cls.DeadlineTicks == 0 {
							t.Fatalf("admission=%s: deadline-less class %s missed a deadline", admission, cls.Name)
						}
						if r.FinishTick < r.SubmitTick+cls.DeadlineTicks {
							t.Fatalf("admission=%s: request %d missed at %d, before its deadline %d",
								admission, i, r.FinishTick, r.SubmitTick+cls.DeadlineTicks)
						}
					default:
						ps.completed++
					}
				}
				var totShed int64
				for k, st := range stats {
					ps := perShard[k]
					if st.Live != 0 {
						t.Errorf("admission=%s shards=%d: shard %d holds %d live after drain", admission, shards, k, st.Live)
					}
					if st.Routed != ps.routed || st.Completed != ps.completed ||
						st.Shed != ps.shed || st.DeadlineMissed != ps.missed {
						t.Errorf("admission=%s shards=%d shard %d: stats (routed=%d completed=%d shed=%d missed=%d) != records (%+v)",
							admission, shards, k, st.Routed, st.Completed, st.Shed, st.DeadlineMissed, ps)
					}
					if st.Routed != st.Completed+st.Shed+st.DeadlineMissed {
						t.Errorf("admission=%s shards=%d shard %d: conservation broken: %d routed != %d+%d+%d",
							admission, shards, k, st.Routed, st.Completed, st.Shed, st.DeadlineMissed)
					}
					totShed += st.Shed
				}
				// The burst is ~10x service rate: shedding policies must
				// actually engage. (Deadline misses need a deeper same-
				// priority backlog; TestClassDeadlineMissAccounting
				// drives one.)
				if admission != AdmissionNone && totShed == 0 {
					t.Errorf("admission=%s shards=%d: overload burst shed nothing", admission, shards)
				}
			}
		}
	}
}

// TestClassDeadlineMissAccounting drives the deadline-miss path
// directly: an all-keygen burst deep enough that the same-priority
// backlog cannot clear inside the 4000-tick class deadline, with no
// admission control to relieve it. Misses must occur, every missed
// request must resolve at or after its deadline without serving any
// words, and the conservation identity must still balance.
func TestClassDeadlineMissAccounting(t *testing.T) {
	cfg := RunConfig{
		Design:       DesignDRStrange,
		Instructions: serveTarget,
		Clients:      4,
		Seed:         7,
		Classes:      classTable([]string{ClassKeygen}),
		Admission:    AdmissionNone,
	}
	sys := NewSystem(cfg)
	var reqs []*InjectedRequest
	at := int64(100)
	const n = 3000
	for i := 0; i < n; i++ {
		reqs = append(reqs, sys.InjectRNGClass(i%cfg.Clients, at, 1+i%2, 0))
		at++
	}
	sys.StepTo(at + 500_000)
	var completed, missed int64
	for i, r := range reqs {
		if !r.Done {
			t.Fatalf("request %d never finished", i)
		}
		if r.Missed {
			missed++
			if dl := r.SubmitTick + 4_000; r.FinishTick < dl {
				t.Fatalf("request %d missed at %d, before its deadline %d", i, r.FinishTick, dl)
			}
			if r.BufferWords != 0 {
				t.Fatalf("missed request %d served %d buffer words", i, r.BufferWords)
			}
		} else {
			// A request that started generating before its deadline is
			// allowed to finish late (that is the serve layer's "late
			// completion", counted in ViolationFrac, not a miss).
			completed++
		}
	}
	st := sys.ShardStats()[0]
	if missed == 0 {
		t.Fatal("keygen-only overload burst missed no deadlines")
	}
	if st.DeadlineMissed != missed || st.Completed != completed {
		t.Errorf("shard stats (completed=%d missed=%d) disagree with records (%d/%d)",
			st.Completed, st.DeadlineMissed, completed, missed)
	}
	if st.Routed != st.Completed+st.Shed+st.DeadlineMissed {
		t.Errorf("conservation broken: %d routed != %d+%d+%d", st.Routed, st.Completed, st.Shed, st.DeadlineMissed)
	}
}

// TestServeClosedLoopDifferentialEnginesWorkers pins the closed-loop
// serve path's determinism where it is most at risk: the injection
// schedule is generated online (think-time draws, retry backoff, pops
// interleaved with StepTo slices), so every engine × worker-count
// combination must produce deeply equal serve points — per-class stats
// included.
func TestServeClosedLoopDifferentialEnginesWorkers(t *testing.T) {
	cfg := ServeConfig{
		Design:      DesignDRStrange,
		WarmupTicks: 2_000,
		WindowTicks: 10_000,
		Seed:        3,
		ThinkTicks:  400,
		Classes:     []string{"keygen", "bulk"},
		Admission:   AdmissionThreshold,
	}
	loads := []float64{1280, 5120}
	var ref []ServePoint
	var refCell string
	for _, engine := range []string{EngineEvent, EngineTicked} {
		for _, workers := range []int{1, 4} {
			cfg.Engine = engine
			pts, err := ServeLoadCtx(WithWorkers(context.Background(), workers), cfg, loads)
			if err != nil {
				t.Fatal(err)
			}
			cell := engine + "/" + string(rune('0'+workers))
			if ref == nil {
				ref, refCell = pts, cell
				if pts[1].Shed == 0 || len(pts[1].PerClass) != 2 {
					t.Fatalf("%s: overload point exercised no shedding: %+v", cell, pts[1])
				}
				continue
			}
			if !reflect.DeepEqual(ref, pts) {
				t.Errorf("closed-loop serve points differ between %s and %s:\n%+v\nvs\n%+v",
					refCell, cell, ref, pts)
			}
		}
	}
}
