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

// ticks returns a pointer to n, for the Scenario.WarmupTicks field.
func ticks(n int64) *int64 { return &n }

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
		{"bad design", Scenario{Kind: KindRun, Design: "turbo", Apps: []string{"soplex"}}, `unknown design "turbo" (valid: ` + strings.Join(sim.DesignNames(), ", ")},
		{"bad mechanism", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Mechanism: "dice"}, `unknown mechanism "dice"`},
		{"bad engine", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Engine: "warp"}, `unknown engine "warp" (want event or ticked)`},
		{"bad app", Scenario{Kind: KindRun, Apps: []string{"soplex", "nopelex"}}, `unknown application "nopelex"`},
		{"bad experiment", Scenario{Kind: KindFigure, Figure: "fig99"}, `unknown experiment "fig99"`},
		{"figure without id", Scenario{Kind: KindFigure}, "needs a figure id"},
		{"negative rng", Scenario{Kind: KindRun, Apps: []string{"soplex"}, RNGMbps: -1}, "rng_mbps must be >= 0"},
		{"NaN rng", Scenario{Kind: KindRun, Apps: []string{"soplex"}, RNGMbps: math.NaN()}, "rng_mbps must be >= 0 and finite; got NaN"},
		{"infinite rng", Scenario{Kind: KindRun, Apps: []string{"soplex"}, RNGMbps: math.Inf(1)}, "rng_mbps must be >= 0 and finite; got +Inf"},
		{"empty run mix", Scenario{Kind: KindRun}, "at least one application or a positive rng_mbps"},
		{"too many priorities", Scenario{Kind: KindRun, Apps: []string{"soplex"}, RNGMbps: 5120, Priorities: []int{1, 0, 0}}, "priorities lists 3 cores but the workload has 2"},
		{"too few priorities", Scenario{Kind: KindRun, Apps: []string{"soplex"}, RNGMbps: 5120, Priorities: []int{1}}, "priorities lists 1 cores but the workload has 2"},
		{"negative load", Scenario{Kind: KindServe, Loads: []float64{320, -640}}, "offered loads must be positive"},
		{"zero load", Scenario{Kind: KindServe, Loads: []float64{0}}, "offered loads must be positive"},
		{"NaN load", Scenario{Kind: KindServe, Loads: []float64{320, math.NaN()}}, "offered loads must be positive finite Mb/s values; got NaN"},
		{"infinite load", Scenario{Kind: KindServe, Loads: []float64{math.Inf(1)}}, "offered loads must be positive finite Mb/s values; got +Inf"},
		{"bad arrival", Scenario{Kind: KindServe, Arrival: "tsunami"}, `unknown arrival process "tsunami"`},
		{"bad serve design", Scenario{Kind: KindServe, Designs: []string{"oblivious", "turbo"}}, `unknown design "turbo"`},
		{"negative burst", Scenario{Kind: KindServe, Arrival: "bursty", Burstiness: -0.1}, "burstiness must be in [0, 0.32]"},
		{"excessive burst", Scenario{Kind: KindServe, Arrival: "bursty", Burstiness: 0.5}, "burstiness must be in [0, 0.32]"},
		{"NaN burst", Scenario{Kind: KindServe, Arrival: "bursty", Burstiness: math.NaN()}, "burstiness must be in [0, 0.32]; got NaN"},
		{"negative workers", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Workers: -2}, "workers must be >= 0"},
		{"negative instr", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Instructions: -5}, "instructions must be >= 0"},
		{"instr past the cap", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Instructions: sim.MaxInstructions + 1}, "instructions must be <= 1099511627776"},
		{"instr overflows the horizon", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Instructions: 1 << 62}, "instructions must be <= 1099511627776"},
		{"figure instr overflows the horizon", Scenario{Kind: KindFigure, Figure: "fig6", Instructions: 1 << 62}, "instructions must be <= 1099511627776"},
		{"negative buffer", Scenario{Kind: KindRun, Apps: []string{"soplex"}, BufferWords: -1}, "buffer_words must be >= 0"},
		{"figure id on run", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Figure: "fig6"}, "only meaningful on a figure scenario"},
		{"designs on run", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Designs: []string{"oblivious"}}, "run scenarios take a single design"},
		{"design on serve", Scenario{Kind: KindServe, Design: "drstrange"}, "serve scenarios compare designs"},
		{"priorities on serve", Scenario{Kind: KindServe, Priorities: []int{1}}, "only meaningful on a run scenario"},
		{"rng on serve", Scenario{Kind: KindServe, RNGMbps: 5120}, "rng_mbps is only meaningful on a run scenario"},
		{"instructions on serve", Scenario{Kind: KindServe, Instructions: 5000}, "instructions is not meaningful on a serve scenario"},
		{"loads on run", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Loads: []float64{320}}, "loads_mbps is only meaningful on a serve scenario"},
		{"window on run", Scenario{Kind: KindRun, Apps: []string{"soplex"}, WindowTicks: 5000}, "window_ticks is only meaningful on a serve scenario"},
		{"mechanism on figure", Scenario{Kind: KindFigure, Figure: "fig6", Mechanism: "quac"}, "mechanism is not meaningful on a figure scenario"},
		{"apps on figure", Scenario{Kind: KindFigure, Figure: "fig6", Apps: []string{"soplex"}}, "apps is not meaningful on a figure scenario"},
		{"even invalid design on figure", Scenario{Kind: KindFigure, Figure: "fig10", Design: "bogus"}, "design is not meaningful on a figure scenario"},
		{"negative shards", Scenario{Kind: KindServe, Shards: -2}, "shards must be >= 0"},
		{"excessive shards", Scenario{Kind: KindServe, Shards: 2048}, "shards must be <= 1024"},
		{"bad router", Scenario{Kind: KindServe, Router: "zipf"}, `unknown router "zipf" (valid: ` + strings.Join(RouterNames(), ", ")},
		{"shards on run", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Shards: 4}, "shards is only meaningful on a serve scenario"},
		{"router on run", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Router: "jsq"}, "router is only meaningful on a serve scenario"},
		{"shards on figure", Scenario{Kind: KindFigure, Figure: "fig6", Shards: 4}, "shards is not meaningful on a figure scenario"},
		{"bad health", Scenario{Kind: KindServe, Health: "maybe"}, `unknown health mode "maybe"`},
		{"bad fault", Scenario{Kind: KindServe, Fault: "meteor"}, `unknown fault "meteor" (valid: ` + strings.Join(FaultNames(), ", ")},
		{"fault with health off", Scenario{Kind: KindServe, Health: "off", Fault: "burst"}, "needs health monitoring"},
		{"health on run", Scenario{Kind: KindRun, Apps: []string{"soplex"}, Health: "on"}, "health is only meaningful on a serve scenario"},
		{"fault on figure", Scenario{Kind: KindFigure, Figure: "fig6", Fault: "burst"}, "fault is not meaningful on a figure scenario"},
		{"negative window", Scenario{Kind: KindServe, WindowTicks: -5}, "window_ticks must be >= 0; got -5"},
		{"window past the cap", Scenario{Kind: KindServe, WindowTicks: sim.MaxServeTicks + 1}, "window_ticks must be <= 72057594037927936"},
		{"window overflows the drain horizon", Scenario{Kind: KindServe, WindowTicks: math.MaxInt64}, "window_ticks must be <= 72057594037927936"},
		{"warmup past the cap", Scenario{Kind: KindServe, WarmupTicks: ticks(sim.MaxServeTicks + 1)}, "warmup_ticks must be <= 72057594037927936"},
		{"warmup overflows the window end", Scenario{Kind: KindServe, WarmupTicks: ticks(math.MaxInt64 - 807), WindowTicks: 1000}, "warmup_ticks must be <= 72057594037927936"},
		{"negative request bytes", Scenario{Kind: KindServe, RequestBytes: -8}, "request_bytes must be in [0, 65536]; got -8"},
		{"request bytes past the cap", Scenario{Kind: KindServe, RequestBytes: sim.MaxRequestBytes + 1}, "request_bytes must be in [0, 65536]"},
		{"request bits overflow", Scenario{Kind: KindServe, RequestBytes: 1 << 61}, "request_bytes must be in [0, 65536]"},
		{"clients past the cap", Scenario{Kind: KindServe, Clients: sim.MaxClients + 1}, "clients must be in [0, 65536]"},
		{"clients overflow a slice", Scenario{Kind: KindServe, Clients: 1 << 62}, "clients must be in [0, 65536]"},
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
	cases := []Scenario{
		{Kind: KindFigure, Figure: "fig6"},
		{Kind: KindFigure, Figure: "table1", Engine: "ticked", Workers: 4},
		{Kind: KindRun, Apps: []string{"soplex"}},
		{Kind: KindRun, RNGMbps: 5120}, // dedicated RNG benchmark, no apps
		{Kind: KindRun, Design: "bliss", Apps: []string{"lbm", "mcf"}, RNGMbps: 2560,
			Mechanism: "quac", BufferWords: 64, Priorities: []int{1, 0, 0}, Seed: 9},
		{Kind: KindServe},
		{Kind: KindServe, Designs: []string{"greedy"}, Loads: []float64{640}, WarmupTicks: ticks(0)},
		{Kind: KindServe, Shards: 16, Router: "buffer-aware"},
		{Kind: KindServe, Shards: 1}, // explicit single channel
		{Kind: KindServe, Health: "on"},
		{Kind: KindServe, Health: "off"},
		{Kind: KindServe, Shards: 4, Fault: "bias-ramp"}, // fault implies health on
		{Kind: KindServe, WarmupTicks: ticks(sim.MaxServeTicks), WindowTicks: sim.MaxServeTicks},
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
	rcfg := Scenario{Kind: KindRun, Apps: []string{"soplex"}}.runConfig().Normalized()
	if rcfg.Instructions != runRef.Instructions {
		t.Errorf("run instructions default %d, sim normalize says %d", rcfg.Instructions, runRef.Instructions)
	}
	if rcfg.Mech.Name != runRef.Mech.Name {
		t.Errorf("lowered mechanism %q, sim normalize says %q", rcfg.Mech.Name, runRef.Mech.Name)
	}

	serveRef := sim.ServeConfig{WarmupTicks: -1}.Normalized()
	ssc := Scenario{Kind: KindServe}.Normalized()
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
	shardedCfg, _ := Scenario{Kind: KindServe, Shards: 4, Router: "sticky"}.serveConfig()
	if shardedCfg.Shards != 4 || shardedCfg.Router != "sticky" {
		t.Errorf("explicit topology lost in lowering: %d/%q", shardedCfg.Shards, shardedCfg.Router)
	}
	// The cold-start distinction survives normalization: an explicit 0
	// warmup must not be "defaulted" back to 20000.
	cold := Scenario{Kind: KindServe, WarmupTicks: ticks(0)}.Normalized()
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
