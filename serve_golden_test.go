package drstrange

import (
	"context"
	"os"
	"testing"

	"drstrange/internal/sim"
)

// TestServeGoldenByteIdenticalBothEngines is the streaming pipeline's
// acceptance gate: testdata/serve_golden.txt was rendered by the
// pre-streaming collection code (pre-materialized arrivals, retained
// handles, sort-based percentiles) at a sweep spanning buffered low
// load through 2x over capacity. The constant-memory pipeline must
// reproduce it byte for byte through the public serve path, under both
// engines.
func TestServeGoldenByteIdenticalBothEngines(t *testing.T) {
	want, err := os.ReadFile("testdata/serve_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Kind:        KindServe,
		Apps:        []string{"mcf"},
		Loads:       []float64{320, 1280, 2560, 5120},
		WarmupTicks: ticks(10_000),
		WindowTicks: 50_000,
		Seed:        3,
	}
	// An explicit single-shard topology (with a non-default router,
	// which is irrelevant at one shard) must reproduce the golden too:
	// shards=1 follows the pre-sharding code path bit for bit.
	sharded := sc
	sharded.Shards = 1
	sharded.Router = "jsq"
	for _, engine := range []string{sim.EngineEvent, sim.EngineTicked} {
		for _, base := range []Scenario{sc, sharded} {
			s := base
			s.Engine = engine
			rep, err := Run(context.Background(), s)
			if err != nil {
				t.Fatalf("%s: Run: %v", engine, err)
			}
			if got := rep.Render(); got != string(want) {
				t.Errorf("%s (shards=%d): serve output differs from the pre-streaming golden\n--- got ---\n%s\n--- want ---\n%s",
					engine, s.Shards, got, want)
			}
			// The serve report additionally carries the pipeline stats the
			// figure does not print: one entry per design, one point per
			// load — and no sharded-topology stats at one channel, keeping
			// the JSON bytes of single-channel reports historical.
			if len(rep.Serve) != 2 {
				t.Fatalf("%s: Serve stats for %d designs, want 2", engine, len(rep.Serve))
			}
			for _, ds := range rep.Serve {
				if len(ds.Points) != 4 {
					t.Fatalf("%s/%s: %d stat points, want 4", engine, ds.Design, len(ds.Points))
				}
				if ds.Shards != 0 || ds.Router != "" {
					t.Errorf("%s/%s: single-channel stats carry topology %d/%q", engine, ds.Design, ds.Shards, ds.Router)
				}
				for _, pt := range ds.Points {
					if pt.PeakOutstanding <= 0 || pt.Completed <= 0 {
						t.Errorf("%s/%s @%g: empty pipeline stats: %+v", engine, ds.Design, pt.OfferedMbps, pt)
					}
					if pt.PerShard != nil {
						t.Errorf("%s/%s @%g: single-channel point carries per-shard stats", engine, ds.Design, pt.OfferedMbps)
					}
				}
			}
		}
	}
}
