package drstrange

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"drstrange/internal/sim"
)

// goldenScenarios pairs each kind's representative scenario with its
// checked-in JSON. The golden files are the schema's compatibility
// contract: if the canonical serialization of these scenarios changes,
// a test failure forces a deliberate schema-version decision instead
// of a silent format drift.
func goldenScenarios() map[string]Scenario {
	warmupZero := int64(0)
	warmupTenK := int64(10000)
	return map[string]Scenario{
		"scenario_figure.json": {
			Version:      SchemaVersion,
			Kind:         KindFigure,
			Name:         "fig10-replay",
			Instructions: 2000,
			Figure:       "fig10",
		},
		"scenario_run.json": {
			Version:      SchemaVersion,
			Kind:         KindRun,
			Engine:       "event",
			Instructions: 5000,
			Seed:         7,
			Design:       "drstrange",
			Mechanism:    "quac",
			BufferWords:  32,
			Apps:         []string{"soplex", "mcf"},
			RNGMbps:      5120,
			Priorities:   []int{1, 0, 0},
		},
		"scenario_serve.json": {
			Version:      SchemaVersion,
			Kind:         KindServe,
			Workers:      2,
			Designs:      []string{"oblivious", "drstrange"},
			Apps:         []string{"mcf"},
			Loads:        []float64{320, 1280},
			Arrival:      "bursty",
			Burstiness:   0.25,
			Clients:      4,
			RequestBytes: 16,
			WarmupTicks:  &warmupZero,
			WindowTicks:  20000,
		},
		"scenario_serve_sharded.json": {
			Version:     SchemaVersion,
			Kind:        KindServe,
			Designs:     []string{"drstrange"},
			Loads:       []float64{1280, 5120},
			WindowTicks: 20000,
			Shards:      4,
			Router:      "jsq",
		},
		"scenario_serve_degraded.json": {
			Version:     SchemaVersion,
			Kind:        KindServe,
			Name:        "degraded-entropy",
			Seed:        3,
			Designs:     []string{"drstrange"},
			Loads:       []float64{1280, 2560},
			Arrival:     "poisson",
			WarmupTicks: &warmupTenK,
			WindowTicks: 50000,
			Shards:      4,
			Router:      "jsq",
			Health:      "on",
			Fault:       "bias-ramp",
		},
	}
}

// TestScenarioJSONRoundTripGolden checks both directions against the
// golden files: parsing yields exactly the expected struct, and
// re-serializing yields exactly the on-disk bytes.
func TestScenarioJSONRoundTripGolden(t *testing.T) {
	for file, want := range goldenScenarios() {
		path := filepath.Join("testdata", file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		got, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", file, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed scenario differs\n got:  %+v\n want: %+v", file, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: golden scenario fails validation: %v", file, err)
		}
		out, err := want.MarshalIndentJSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", file, err)
		}
		if string(out) != string(data) {
			t.Errorf("%s: serialization drifted from golden file\n got:\n%s\n want:\n%s", file, out, data)
		}
	}
}

// TestParseScenarioRejectsUnknownFields: a typoed knob must fail
// loudly, never silently fall back.
func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	if _, err := ParseScenario([]byte(`{"kind":"run","dsign":"drstrange"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseScenario([]byte(`{"kind":"run"} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// TestScenarioValidateRejections walks the rejection matrix: bad
// symbolic names (with the sorted valid list in the message), bad
// magnitudes, cross-kind field misuse, and schema-version mismatches.
func TestScenarioValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		sc      Scenario
		wantSub string
	}{
		{"missing kind", Scenario{}, "missing scenario kind"},
		{"unknown kind", Scenario{Kind: "sweep"}, `unknown scenario kind "sweep"`},
		{"future version", Scenario{Version: 99, Kind: KindRun, Apps: []string{"soplex"}}, "unsupported scenario version 99"},
		{"bad design", NewScenario(KindRun, WithDesign("turbo"), WithApps("soplex")), `unknown design "turbo" (valid: ` + strings.Join(sim.DesignNames(), ", ")},
		{"bad mechanism", NewScenario(KindRun, WithApps("soplex"), WithMechanism("dice")), `unknown mechanism "dice"`},
		{"bad engine", NewScenario(KindRun, WithApps("soplex"), WithEngine("warp")), `unknown engine "warp" (want event or ticked)`},
		{"bad app", NewScenario(KindRun, WithApps("soplex", "nopelex")), `unknown application "nopelex"`},
		{"bad experiment", NewScenario(KindFigure, WithFigure("fig99")), `unknown experiment "fig99"`},
		{"figure without id", NewScenario(KindFigure), "needs a figure id"},
		{"negative rng", NewScenario(KindRun, WithApps("soplex"), WithRNGMbps(-1)), "rng_mbps must be >= 0"},
		{"NaN rng", NewScenario(KindRun, WithApps("soplex"), WithRNGMbps(math.NaN())), "rng_mbps must be >= 0 and finite; got NaN"},
		{"infinite rng", NewScenario(KindRun, WithApps("soplex"), WithRNGMbps(math.Inf(1))), "rng_mbps must be >= 0 and finite; got +Inf"},
		{"empty run mix", NewScenario(KindRun), "at least one application or a positive rng_mbps"},
		{"too many priorities", NewScenario(KindRun, WithApps("soplex"), WithRNGMbps(5120), WithPriorities(1, 0, 0)), "priorities lists 3 cores but the workload has 2"},
		{"too few priorities", NewScenario(KindRun, WithApps("soplex"), WithRNGMbps(5120), WithPriorities(1)), "priorities lists 1 cores but the workload has 2"},
		{"negative load", NewScenario(KindServe, WithLoads(320, -640)), "offered loads must be positive"},
		{"zero load", NewScenario(KindServe, WithLoads(0)), "offered loads must be positive"},
		{"NaN load", NewScenario(KindServe, WithLoads(320, math.NaN())), "offered loads must be positive finite Mb/s values; got NaN"},
		{"infinite load", NewScenario(KindServe, WithLoads(math.Inf(1))), "offered loads must be positive finite Mb/s values; got +Inf"},
		{"bad arrival", NewScenario(KindServe, WithArrival("tsunami", 0)), `unknown arrival process "tsunami"`},
		{"bad serve design", NewScenario(KindServe, WithDesigns("oblivious", "turbo")), `unknown design "turbo"`},
		{"negative burst", NewScenario(KindServe, WithArrival("bursty", -0.1)), "burstiness must be in [0, 0.32]"},
		{"excessive burst", NewScenario(KindServe, WithArrival("bursty", 0.5)), "burstiness must be in [0, 0.32]"},
		{"NaN burst", NewScenario(KindServe, WithArrival("bursty", math.NaN())), "burstiness must be in [0, 0.32]; got NaN"},
		{"negative workers", NewScenario(KindRun, WithApps("soplex"), WithWorkers(-2)), "workers must be >= 0"},
		{"negative instr", NewScenario(KindRun, WithApps("soplex"), WithInstructions(-5)), "instructions must be >= 0"},
		{"instr past the cap", NewScenario(KindRun, WithApps("soplex"), WithInstructions(sim.MaxInstructions+1)), "instructions must be <= 1099511627776"},
		{"instr overflows the horizon", NewScenario(KindRun, WithApps("soplex"), WithInstructions(1<<62)), "instructions must be <= 1099511627776"},
		{"figure instr overflows the horizon", NewScenario(KindFigure, WithFigure("fig6"), WithInstructions(1<<62)), "instructions must be <= 1099511627776"},
		{"negative buffer", NewScenario(KindRun, WithApps("soplex"), WithBufferWords(-1)), "buffer_words must be >= 0"},
		{"figure id on run", NewScenario(KindRun, WithApps("soplex"), WithFigure("fig6")), "only meaningful on a figure scenario"},
		{"designs on run", NewScenario(KindRun, WithApps("soplex"), WithDesigns("oblivious")), "run scenarios take a single design"},
		{"design on serve", NewScenario(KindServe, WithDesign("drstrange")), "serve scenarios compare designs"},
		{"priorities on serve", NewScenario(KindServe, WithPriorities(1)), "only meaningful on a run scenario"},
		{"rng on serve", NewScenario(KindServe, WithRNGMbps(5120)), "rng_mbps is only meaningful on a run scenario"},
		{"instructions on serve", NewScenario(KindServe, WithInstructions(5000)), "instructions is not meaningful on a serve scenario"},
		{"loads on run", NewScenario(KindRun, WithApps("soplex"), WithLoads(320)), "loads_mbps is only meaningful on a serve scenario"},
		{"window on run", NewScenario(KindRun, WithApps("soplex"), WithWindowTicks(5000)), "window_ticks is only meaningful on a serve scenario"},
		{"mechanism on figure", NewScenario(KindFigure, WithFigure("fig6"), WithMechanism("quac")), "mechanism is not meaningful on a figure scenario"},
		{"apps on figure", NewScenario(KindFigure, WithFigure("fig6"), WithApps("soplex")), "apps is not meaningful on a figure scenario"},
		{"even invalid design on figure", NewScenario(KindFigure, WithFigure("fig10"), WithDesign("bogus")), "design is not meaningful on a figure scenario"},
		{"negative shards", NewScenario(KindServe, WithShards(-2)), "shards must be >= 0"},
		{"excessive shards", NewScenario(KindServe, WithShards(2048)), "shards must be <= 1024"},
		{"bad router", NewScenario(KindServe, WithRouter("zipf")), `unknown router "zipf" (valid: ` + strings.Join(RouterNames(), ", ")},
		{"shards on run", NewScenario(KindRun, WithApps("soplex"), WithShards(4)), "shards is only meaningful on a serve scenario"},
		{"router on run", NewScenario(KindRun, WithApps("soplex"), WithRouter("jsq")), "router is only meaningful on a serve scenario"},
		{"shards on figure", NewScenario(KindFigure, WithFigure("fig6"), WithShards(4)), "shards is not meaningful on a figure scenario"},
		{"bad health", NewScenario(KindServe, WithHealth("maybe")), `unknown health mode "maybe"`},
		{"bad fault", NewScenario(KindServe, WithFault("meteor")), `unknown fault "meteor" (valid: ` + strings.Join(FaultNames(), ", ")},
		{"fault with health off", NewScenario(KindServe, WithHealth("off"), WithFault("burst")), "needs health monitoring"},
		{"health on run", NewScenario(KindRun, WithApps("soplex"), WithHealth("on")), "health is only meaningful on a serve scenario"},
		{"fault on figure", NewScenario(KindFigure, WithFigure("fig6"), WithFault("burst")), "fault is not meaningful on a figure scenario"},
		{"negative window", NewScenario(KindServe, WithWindowTicks(-5)), "window_ticks must be >= 0; got -5"},
		{"negative request bytes", NewScenario(KindServe, WithRequestBytes(-8)), "request_bytes must be in [0, 65536]; got -8"},
		{"request bytes past the cap", NewScenario(KindServe, WithRequestBytes(sim.MaxRequestBytes+1)), "request_bytes must be in [0, 65536]"},
		{"request bits overflow", NewScenario(KindServe, WithRequestBytes(1<<61)), "request_bytes must be in [0, 65536]"},
		{"clients past the cap", NewScenario(KindServe, WithClients(sim.MaxClients+1)), "clients must be in [0, 65536]"},
		{"clients overflow a slice", NewScenario(KindServe, WithClients(1<<62)), "clients must be in [0, 65536]"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%s: validated clean, want error containing %q", tc.name, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestScenarioValidateAccepts pins the accepting side: minimal and
// fully specified scenarios of every kind.
func TestScenarioValidateAccepts(t *testing.T) {
	warmup := int64(0)
	cases := []Scenario{
		NewScenario(KindFigure, WithFigure("fig6")),
		NewScenario(KindFigure, WithFigure("table1"), WithEngine("ticked"), WithWorkers(4)),
		NewScenario(KindRun, WithApps("soplex")),
		NewScenario(KindRun, WithRNGMbps(5120)), // dedicated RNG benchmark, no apps
		NewScenario(KindRun, WithDesign("bliss"), WithApps("lbm", "mcf"), WithRNGMbps(2560),
			WithMechanism("quac"), WithBufferWords(64), WithPriorities(1, 0, 0), WithSeed(9)),
		NewScenario(KindServe),
		{Kind: KindServe, Designs: []string{"greedy"}, Loads: []float64{640}, WarmupTicks: &warmup},
		NewScenario(KindServe, WithShards(16), WithRouter("buffer-aware")),
		NewScenario(KindServe, WithShards(1)), // explicit single channel
		NewScenario(KindServe, WithHealth("on")),
		NewScenario(KindServe, WithHealth("off")),
		NewScenario(KindServe, WithShards(4), WithFault("bias-ramp")), // fault implies health on
	}
	for i, sc := range cases {
		if err := sc.Validate(); err != nil {
			t.Errorf("case %d: unexpected validation error: %v", i, err)
		}
	}
}

// TestScenarioDefaultingParity asserts the scenario layer's defaults
// agree with the simulator's own normalization — RunConfig.Normalized
// and ServeConfig.Normalized are the references, so the two defaulting
// points cannot drift apart.
func TestScenarioDefaultingParity(t *testing.T) {
	runRef := sim.RunConfig{}.Normalized()
	rcfg := NewScenario(KindRun, WithApps("soplex")).runConfig().Normalized()
	if rcfg.Instructions != runRef.Instructions {
		t.Errorf("run instructions default %d, sim normalize says %d", rcfg.Instructions, runRef.Instructions)
	}
	if rcfg.Mech.Name != runRef.Mech.Name {
		t.Errorf("lowered mechanism %q, sim normalize says %q", rcfg.Mech.Name, runRef.Mech.Name)
	}

	serveRef := sim.ServeConfig{WarmupTicks: -1}.Normalized()
	ssc := NewScenario(KindServe).Normalized()
	scfg0, _ := ssc.serveConfig()
	if scfg0.Normalized().Mech.Name != serveRef.Mech.Name {
		t.Errorf("serve mechanism default %q, sim normalize says %q", scfg0.Normalized().Mech.Name, serveRef.Mech.Name)
	}
	// Clients stays zero through normalization and lowering, so a
	// report echoes the scenario as written; the simulator's own
	// Normalized fills in the constant 8, like the topology fields below.
	if ssc.Clients != 0 {
		t.Errorf("scenario normalization pinned clients %d, want unset zero", ssc.Clients)
	}
	if got := scfg0.Normalized(); got.Clients != serveRef.Clients {
		t.Errorf("lowered clients default %d, sim normalize says %d", got.Clients, serveRef.Clients)
	}
	if ssc.RequestBytes != serveRef.RequestBytes {
		t.Errorf("request bytes default %d, sim normalize says %d", ssc.RequestBytes, serveRef.RequestBytes)
	}
	if ssc.Arrival != serveRef.Arrival {
		t.Errorf("arrival default %q, sim normalize says %q", ssc.Arrival, serveRef.Arrival)
	}
	if *ssc.WarmupTicks != serveRef.WarmupTicks {
		t.Errorf("warmup default %d, sim normalize says %d", *ssc.WarmupTicks, serveRef.WarmupTicks)
	}
	if ssc.WindowTicks != serveRef.WindowTicks {
		t.Errorf("window default %d, sim normalize says %d", ssc.WindowTicks, serveRef.WindowTicks)
	}
	// Shards/Router stay zero through normalization and lowering too;
	// the simulator's own Normalized fills in one shard and round-robin.
	if ssc.Shards != 0 || ssc.Router != "" {
		t.Errorf("scenario normalization pinned topology %d/%q, want unset zeros", ssc.Shards, ssc.Router)
	}
	if got := scfg0.Normalized(); got.Shards != serveRef.Shards || got.Router != serveRef.Router {
		t.Errorf("lowered topology defaults %d/%q, sim normalize says %d/%q",
			got.Shards, got.Router, serveRef.Shards, serveRef.Router)
	}
	shardedCfg, _ := NewScenario(KindServe, WithShards(4), WithRouter("sticky")).serveConfig()
	if shardedCfg.Shards != 4 || shardedCfg.Router != "sticky" {
		t.Errorf("explicit topology lost in lowering: %d/%q", shardedCfg.Shards, shardedCfg.Router)
	}
	// The cold-start distinction survives normalization: an explicit 0
	// warmup must not be "defaulted" back to 20000.
	cold := NewScenario(KindServe, WithWarmupTicks(0)).Normalized()
	if *cold.WarmupTicks != 0 {
		t.Errorf("explicit cold-start warmup rewritten to %d", *cold.WarmupTicks)
	}
	scfg, designs := cold.serveConfig()
	if scfg.Normalized().WarmupTicks != 0 {
		t.Errorf("cold-start warmup lost in lowering: %d", scfg.Normalized().WarmupTicks)
	}
	if len(designs) != 2 {
		t.Errorf("default serve designs = %d, want 2", len(designs))
	}
}

// committedScenarioFiles lists every scenario file the repository
// ships: the canned scenarios, the schema goldens, and the benchmark's
// workloads (read only).
func committedScenarioFiles(tb testing.TB) []string {
	var files []string
	for _, pattern := range []string{"scenarios/*.json", "testdata/scenario_*.json", "bench/workloads/*/*.json"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		tb.Fatal("no committed scenario files found")
	}
	return files
}

// TestCommittedServeScenariosPassServeChecks: the serving layer's
// up-front checks (the backlog cap, the population cap) reject no
// shipped serve scenario. Each design's sweep runs under a cancelled
// context, which checks every point and then simulates none.
func TestCommittedServeScenariosPassServeChecks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range committedScenarioFiles(t) {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Kind != KindServe {
			continue
		}
		cfg, designs := sc.serveConfig()
		for _, d := range designs {
			cfg.Design = d
			if _, err := sim.ServeLoadCtx(ctx, cfg, sc.Normalized().Loads); !errors.Is(err, context.Canceled) {
				t.Errorf("%s (%s): ServeLoadCtx error %v, want only the cancellation", path, d, err)
			}
		}
	}
}

// FuzzScenario feeds arbitrary bytes to the scenario front door,
// seeded from every committed scenario file. ParseScenario, Validate
// and Normalized must never panic, and a scenario that validates must
// normalize to a fixed point: its normalized form validates,
// normalizing again changes no byte of MarshalIndentJSON, and those
// bytes parse, validate and normalize back to themselves. The check
// compares JSON bytes, not structs: an explicit "apps": [] comes back
// nil through the omitempty round trip, the same scenario either way.
// Nothing is asserted of an invalid scenario's normalized form, since
// Normalized repairs some invalid fields (a negative window_ticks) by
// design.
func FuzzScenario(f *testing.F) {
	for _, path := range committedScenarioFiles(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		n := sc.Normalized()
		if err := sc.Validate(); err != nil {
			_ = n.Validate()
			return
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("the normalized form of a valid scenario fails validation: %v\n%s", err, data)
		}
		want, err := n.MarshalIndentJSON()
		if err != nil {
			t.Fatalf("marshalling the normalized form: %v", err)
		}
		if again, err := n.Normalized().MarshalIndentJSON(); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("normalizing twice changed the scenario (%v):\n%s\nthen:\n%s", err, want, again)
		}
		back, err := ParseScenario(want)
		if err != nil {
			t.Fatalf("the normalized form does not parse back: %v\n%s", err, want)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("the parsed-back normalized form fails validation: %v\n%s", err, want)
		}
		if got, err := back.Normalized().MarshalIndentJSON(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the normalized form does not round-trip (%v):\n%s\nthen:\n%s", err, want, got)
		}
	})
}
