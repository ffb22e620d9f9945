package drstrange

import (
	"context"
	"os"
	"testing"

	"drstrange/internal/sim"
)

// TestServeClosedLoopGoldenByteIdenticalEngines pins the
// overload-robustness output: the checked-in
// scenarios/serve_closedloop.json (a closed-loop client population with
// keygen+bulk request classes and threshold-by-depth admission, swept
// to 5.12 Gb/s — 2x the D-RaNGe capacity) must render byte-identically
// to testdata/serve_closedloop_golden.txt under both engines. The retry
// backoff jitter, the think-time
// draws, the priority queueing, and the shed decisions are all part of
// the deterministic contract.
//
// Beyond the bytes, the 2x point must tell the headline story the
// admission control exists for: the high-priority keygen class holds
// its deadline SLO (violation fraction < 1%) while the best-effort bulk
// class absorbs the shedding, and the closed-loop retry path actually
// resubmits what was shed.
func TestServeClosedLoopGoldenByteIdenticalEngines(t *testing.T) {
	want, err := os.ReadFile("testdata/serve_closedloop_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("scenarios/serve_closedloop.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseScenario(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{sim.EngineEvent, sim.EngineTicked} {
		s := sc
		s.Engine = engine
		rep, runErr := Run(context.Background(), s)
		if runErr != nil {
			t.Fatalf("%s: Run: %v", engine, runErr)
		}
		if got := rep.Render(); got != string(want) {
			t.Errorf("%s: closed-loop serve output differs from golden\n--- got ---\n%s\n--- want ---\n%s",
				engine, got, want)
		}
		for _, ds := range rep.Serve {
			for _, pt := range ds.Points {
				if pt.Population == 0 {
					t.Fatalf("%s %s @%g: closed-loop point reports no client population", engine, ds.Design, pt.OfferedMbps)
				}
				if len(pt.PerClass) != 2 {
					t.Fatalf("%s %s @%g: want 2 per-class entries, got %+v", engine, ds.Design, pt.OfferedMbps, pt.PerClass)
				}
				keygen, bulk := pt.PerClass[0], pt.PerClass[1]
				if keygen.Class != "keygen" || bulk.Class != "bulk" {
					t.Fatalf("%s %s @%g: per-class order drifted: %+v", engine, ds.Design, pt.OfferedMbps, pt.PerClass)
				}
				if keygen.ViolationFrac >= 0.01 {
					t.Errorf("%s %s @%g: keygen SLO-violation fraction %v, want < 1%%",
						engine, ds.Design, pt.OfferedMbps, keygen.ViolationFrac)
				}
				if pt.OfferedMbps < 5120 {
					continue
				}
				// The 2x-overload point: bulk absorbs the shedding,
				// keygen none of it, and the shed requests come back
				// through the closed-loop retry path.
				if pt.Shed == 0 || bulk.Shed == 0 {
					t.Errorf("%s %s @%g: 2x overload with admission shed nothing: %+v",
						engine, ds.Design, pt.OfferedMbps, pt)
				}
				if keygen.Shed != 0 {
					t.Errorf("%s %s @%g: admission shed %d keygen requests; only bulk should shed",
						engine, ds.Design, pt.OfferedMbps, keygen.Shed)
				}
				if pt.Retried == 0 {
					t.Errorf("%s %s @%g: shed requests never retried", engine, ds.Design, pt.OfferedMbps)
				}
			}
		}
	}
}
