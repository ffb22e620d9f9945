package sim

import (
	"testing"

	"drstrange/internal/workload"
)

// TestInFlightCollectionConservation checks the gated completion
// collection from outside, slice by slice. tickShard collects in-flight
// words only on ticks whose controller served an RNG request, and stops
// after as many finished words as it served. The RNG benchmark core in
// the mix makes that count include requests that are not injected
// words, and the request classes reorder the controller's RNG queue, so
// generated words finish out of submission order. Their deadlines
// differ, so a later arrival can carry the shard's earliest deadline. After every StepTo
// slice, no in-flight word may be left Done (a finished word the
// collection missed), no waiting request may be past its class deadline
// with no word submitted, each request must have completed at most
// once (a deadline miss exactly at its deadline tick), and per shard
// Routed == Completed + Shed + DeadlineMissed + Live.
// After the drain every request has completed exactly once and Live is
// zero, so the identity is Routed == Completed + Shed + DeadlineMissed.
// Every case runs under both engines.
func TestInFlightCollectionConservation(t *testing.T) {
	tiers := classTable([]string{ClassKeygen, ClassStandard, ClassBulk})
	// Equal priorities keep FIFO order, so the urgent requests of a new
	// burst queue behind patient ones with far later deadlines.
	urgency := []RequestClass{{Name: "urgent", DeadlineTicks: 300}, {Name: "patient", DeadlineTicks: 30_000}}
	for _, engine := range []string{EngineEvent, EngineTicked} {
		t.Run(engine, func(t *testing.T) {
			var completed, shed, missed int64
			for _, tc := range []struct {
				admission string
				classes   []RequestClass
			}{
				{AdmissionThreshold, tiers},
				{AdmissionNone, tiers},
				{AdmissionNone, urgency},
			} {
				admission := tc.admission
				for _, shards := range []int{1, 3} {
					cfg := RunConfig{
						Design:       DesignDRStrange,
						Mix:          workload.Mix{Name: "mcf+rng", Apps: []string{"mcf"}, RNGMbps: 640},
						Instructions: serveTarget,
						Clients:      4,
						Seed:         uint64(shards),
						Shards:       shards,
						Router:       RouterJSQ,
						Classes:      tc.classes,
						Admission:    admission,
						Engine:       engine,
					}
					sys := NewSystem(cfg)
					// A handle is recycled once its hook returns, so the hook maps
					// the handle to the request it was last injected as and forgets
					// it: a second completion of that request finds no entry.
					live := map[*InjectedRequest]int{}
					var hooks []int
					stray, lateMiss := 0, 0
					sys.OnInjectionComplete(func(ir *InjectedRequest) {
						id, ok := live[ir]
						if !ok {
							stray++
							return
						}
						delete(live, ir)
						hooks[id]++
						switch {
						case ir.Shed:
							shed++
						case ir.Missed:
							missed++
							if ir.FinishTick != ir.deadline {
								lateMiss++
							}
						default:
							completed++
						}
					})
					check := func(when string) {
						t.Helper()
						if stray > 0 || lateMiss > 0 {
							t.Fatalf("admission=%s shards=%d %s: %d completions of requests that had already completed, %d deadline misses off their deadline tick",
								admission, shards, when, stray, lateMiss)
						}
						for k, sh := range sys.shards {
							for _, w := range sh.outstanding {
								if w.req.Done {
									t.Fatalf("admission=%s shards=%d %s: shard %d holds a finished word in flight",
										admission, shards, when, k)
								}
							}
							// A shard with waiting requests executes every tick, so a
							// request whose deadline has come without a word submitted
							// must already have been failed.
							for _, ir := range sh.waiting[sh.waitHead:] {
								if ir.deadline > 0 && ir.deadline < sys.Now() && ir.wordsSubmitted == 0 {
									t.Fatalf("admission=%s shards=%d %s: shard %d still holds a request past its deadline %d at tick %d",
										admission, shards, when, k, ir.deadline, sys.Now())
								}
							}
						}
						for _, st := range sys.ShardStats() {
							if st.Routed != st.Completed+st.Shed+st.DeadlineMissed+int64(st.Live) {
								t.Fatalf("admission=%s shards=%d %s shard %d: %d routed != %d completed + %d shed + %d missed + %d live",
									admission, shards, when, st.Shard, st.Routed, st.Completed, st.Shed, st.DeadlineMissed, st.Live)
							}
						}
					}

					// Bursts at about twice the shards' D-RaNGe capacity, each
					// followed by a quieter stretch, sliced at odd lengths.
					at := int64(100)
					for slice := 0; slice < 60; slice++ {
						gap := int64(2 + slice%3)
						if slice%10 >= 7 {
							gap = 40
						}
						end := sys.Now() + 997
						for ; at <= end; at += max(1, gap/int64(shards)) {
							n := len(hooks)
							ir := sys.InjectRNGClass(n%cfg.Clients, at, 1+n%3, n%len(cfg.Classes))
							live[ir] = n
							hooks = append(hooks, 0)
						}
						sys.StepTo(end)
						check("mid-run")
					}
					for i := 0; sys.OutstandingInjections() > 0; i++ {
						if i > 1000 {
							t.Fatalf("admission=%s shards=%d: %d requests never completed", admission, shards, sys.OutstandingInjections())
						}
						sys.StepTo(sys.Now() + 1009)
						check("draining")
					}
					for id, n := range hooks {
						if n != 1 {
							t.Fatalf("admission=%s shards=%d: request %d completed %d times", admission, shards, id, n)
						}
					}
					for _, st := range sys.ShardStats() {
						if st.Live != 0 {
							t.Errorf("admission=%s shards=%d: shard %d holds %d live after the drain", admission, shards, st.Shard, st.Live)
						}
					}
				}
			}
			if completed == 0 || shed == 0 || missed == 0 {
				t.Errorf("outcomes not all exercised: %d completed, %d shed, %d deadline-missed", completed, shed, missed)
			}
		})
	}
}
