package drstrange

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"drstrange/internal/sim"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// Kind selects what a Scenario asks the simulator to do.
type Kind string

const (
	// KindFigure replays one of the paper's figure/table drivers
	// (Scenario.Figure names the experiment; see ExperimentIDs).
	KindFigure Kind = "figure"
	// KindRun executes one closed-loop workload evaluation — a shared
	// run plus its alone-run baselines — and reports the paper's
	// derived metrics (slowdowns, unfairness, energy, ...).
	KindRun Kind = "run"
	// KindServe sweeps open-loop offered load against one or more
	// designs and reports the latency-vs-load serving curves.
	KindServe Kind = "serve"
)

// SchemaVersion is the current Scenario schema version. Version 0 in a
// serialized scenario means "current" (the zero value of a literal);
// any other mismatch is rejected by Validate so a future incompatible
// schema can fail loudly instead of misreading fields.
const SchemaVersion = 1

// Scenario is the declarative description of one experiment: a single
// JSON-serializable schema that names a whole run — design, mechanism,
// engine, workload, arrival process — instead of a pile of flags. The
// zero value is not runnable; construct with NewScenario (functional
// options), a struct literal, or ParseScenario/LoadScenario, then hand
// it to Run or Stream.
//
// Field applicability by kind:
//
//	figure: Figure (required), Instructions
//	run:    Design, Apps, RNGMbps, Priorities, Mechanism, BufferWords,
//	        Instructions, Seed
//	serve:  Designs, Loads, Arrival, Burstiness, Clients, ThinkTicks,
//	        Classes, Admission, RequestBytes, WarmupTicks, WindowTicks,
//	        Shards, Router, Health, Fault, Warm, Checkpoint, Apps
//	        (background load), Mechanism, BufferWords, Seed
//	all:    Engine, Workers (execution knobs)
//
// Precedence of the execution knobs: a scenario field that is set wins
// over the corresponding DRSTRANGE_* environment variable; a zero
// field defers to the environment (then to the built-in default), so
// serialized scenarios stay portable across differently tuned hosts
// unless they explicitly pin a value.
type Scenario struct {
	// Version is the schema version (SchemaVersion); 0 means current.
	Version int  `json:"version,omitempty"`
	Kind    Kind `json:"kind"`
	// Name optionally labels the scenario (reports echo it; it does not
	// affect execution).
	Name string `json:"name,omitempty"`

	// Engine pins the simulation engine ("event" or "ticked"); ""
	// defers to DRSTRANGE_ENGINE.
	Engine string `json:"engine,omitempty"`
	// Workers pins the parallel-simulation pool size; 0 defers to
	// DRSTRANGE_WORKERS. Output is byte-identical at any count.
	Workers int `json:"workers,omitempty"`
	// Instructions is the per-core budget of closed-loop runs; 0 defers
	// to DRSTRANGE_INSTR. Rejected on serve scenarios, whose horizon is
	// WarmupTicks+WindowTicks.
	Instructions int64  `json:"instructions,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`

	// Figure names the experiment driver of a figure scenario (one of
	// ExperimentIDs: "fig1" ... "fig18", "sec6", "sec8.8", ...).
	Figure string `json:"figure,omitempty"`

	// Design is the system design of a run scenario; Designs the
	// comparison set of a serve scenario.
	Design    string   `json:"design,omitempty"`
	Designs   []string `json:"designs,omitempty"`
	Mechanism string   `json:"mechanism,omitempty"`
	// BufferWords sizes the random number buffer; 0 selects the design
	// default (16).
	BufferWords int `json:"buffer_words,omitempty"`

	// Apps lists applications by profile name: the measured non-RNG
	// cores of a run scenario, or the background contention workload of
	// a serve scenario.
	Apps []string `json:"apps,omitempty"`
	// RNGMbps adds the synthetic RNG benchmark core at the required
	// throughput (run scenarios).
	RNGMbps float64 `json:"rng_mbps,omitempty"`
	// Priorities optionally assigns OS priorities per core (RNG
	// benchmark core last).
	Priorities []int `json:"priorities,omitempty"`

	// Loads is the serve sweep's offered loads in Mb/s of requested
	// random bits.
	Loads []float64 `json:"loads_mbps,omitempty"`
	// Arrival names the arrival process (poisson, bursty, diurnal).
	Arrival string `json:"arrival,omitempty"`
	// Burstiness shapes the bursty process (domain [0, 0.32]; ignored
	// by the other arrival processes).
	Burstiness float64 `json:"burstiness,omitempty"`
	// Clients is the number of simulated request clients; 0 defers to
	// DRSTRANGE_CLIENTS (then 8). Ignored by closed-loop sweeps
	// (ThinkTicks > 0), whose population is sized from the offered load.
	Clients int `json:"clients,omitempty"`
	// ThinkTicks switches the serve sweep to a closed-loop client
	// population with this mean exponential think time in ticks: each
	// client submits, waits for completion, thinks, submits again, and
	// retries shed/failed requests with capped exponential backoff. 0 —
	// the default — keeps the open-loop arrival process. Serve scenarios
	// only.
	ThinkTicks int64 `json:"think_ticks,omitempty"`
	// Classes names the request classes cycled across submissions (see
	// ClassNames); request i carries class i mod len(Classes). Empty
	// leaves every request unclassed. Serve scenarios only.
	Classes []string `json:"classes,omitempty"`
	// Admission names the per-shard admission policy (see
	// AdmissionNames); "" defers to DRSTRANGE_ADMISSION (then none).
	// Serve scenarios only.
	Admission string `json:"admission,omitempty"`
	// RequestBytes is the size of one RNG request.
	RequestBytes int `json:"request_bytes,omitempty"`
	// WarmupTicks precede the measurement window. nil selects the
	// default (20000); an explicit 0 measures from cold start — the
	// pointer keeps that distinction through JSON.
	WarmupTicks *int64 `json:"warmup_ticks,omitempty"`
	// WindowTicks is the measurement window length (1 tick = 5 ns).
	WindowTicks int64 `json:"window_ticks,omitempty"`
	// Shards is the number of independent DRAM channel shards serving
	// the request stream; 0 defers to DRSTRANGE_SHARDS (then 1, the
	// paper's single-channel machine). Serve scenarios only.
	Shards int `json:"shards,omitempty"`
	// Router names the request routing policy across shards (see
	// RouterNames); "" defers to DRSTRANGE_ROUTER (then round-robin).
	Router string `json:"router,omitempty"`
	// Health switches online entropy health monitoring ("on" or
	// "off"); "" defers to DRSTRANGE_HEALTH (then "off", except that a
	// configured fault implies "on"). Serve scenarios only.
	Health string `json:"health,omitempty"`
	// Fault names a deterministic entropy degradation profile injected
	// into every shard's stream (see FaultNames); "" defers to
	// DRSTRANGE_FAULT (then none). Serve scenarios only. Setting a
	// fault with health explicitly "off" is a validation error.
	Fault string `json:"fault,omitempty"`
	// Warm switches checkpointed warm starts ("on" or "off"): the sweep
	// warms one system image per configuration and forks every
	// offered-load point from it instead of re-running the warmup per
	// point. "" defers to DRSTRANGE_WARM (then "off"). Serve scenarios
	// only.
	Warm string `json:"warm,omitempty"`
	// Checkpoint, when positive, snapshots and restores the running
	// point's system every Checkpoint ticks inside the measurement
	// window (periodic checkpoint/resume for long windows); the output
	// is byte-identical to an uncheckpointed run. Serve scenarios only.
	Checkpoint int64 `json:"checkpoint,omitempty"`
}

// Option mutates a Scenario under construction (NewScenario).
type Option func(*Scenario)

// NewScenario builds a scenario of the given kind with the options
// applied, leaving everything else to Normalized defaults.
func NewScenario(kind Kind, opts ...Option) Scenario {
	sc := Scenario{Version: SchemaVersion, Kind: kind}
	for _, opt := range opts {
		opt(&sc)
	}
	return sc
}

// WithName labels the scenario.
func WithName(name string) Option { return func(s *Scenario) { s.Name = name } }

// WithFigure selects the experiment driver of a figure scenario.
func WithFigure(id string) Option { return func(s *Scenario) { s.Figure = id } }

// WithDesign sets the run scenario's system design.
func WithDesign(name string) Option { return func(s *Scenario) { s.Design = name } }

// WithDesigns sets the serve scenario's design comparison set.
func WithDesigns(names ...string) Option { return func(s *Scenario) { s.Designs = names } }

// WithMechanism selects the TRNG mechanism (drange, quac).
func WithMechanism(name string) Option { return func(s *Scenario) { s.Mechanism = name } }

// WithEngine pins the simulation engine (event, ticked).
func WithEngine(name string) Option { return func(s *Scenario) { s.Engine = name } }

// WithWorkers pins the parallel-simulation pool size.
func WithWorkers(n int) Option { return func(s *Scenario) { s.Workers = n } }

// WithInstructions sets the per-core instruction budget.
func WithInstructions(n int64) Option { return func(s *Scenario) { s.Instructions = n } }

// WithBufferWords sizes the random number buffer (0 = design default).
func WithBufferWords(n int) Option { return func(s *Scenario) { s.BufferWords = n } }

// WithSeed perturbs the workload traces and arrival draws.
func WithSeed(seed uint64) Option { return func(s *Scenario) { s.Seed = seed } }

// WithApps sets the application list (measured cores of a run
// scenario, background load of a serve scenario).
func WithApps(names ...string) Option { return func(s *Scenario) { s.Apps = names } }

// WithRNGMbps adds the synthetic RNG benchmark core.
func WithRNGMbps(mbps float64) Option { return func(s *Scenario) { s.RNGMbps = mbps } }

// WithPriorities assigns per-core OS priorities.
func WithPriorities(p ...int) Option { return func(s *Scenario) { s.Priorities = p } }

// WithLoads sets the serve sweep's offered loads (Mb/s).
func WithLoads(mbps ...float64) Option { return func(s *Scenario) { s.Loads = mbps } }

// WithArrival selects the arrival process and its burstiness.
func WithArrival(name string, burstiness float64) Option {
	return func(s *Scenario) { s.Arrival, s.Burstiness = name, burstiness }
}

// WithClients sets the number of simulated request clients.
func WithClients(n int) Option { return func(s *Scenario) { s.Clients = n } }

// WithThinkTicks switches the serve sweep to a closed-loop client
// population with the given mean think time in ticks (0 = open loop).
func WithThinkTicks(n int64) Option { return func(s *Scenario) { s.ThinkTicks = n } }

// WithClasses sets the request classes cycled across submissions (see
// ClassNames).
func WithClasses(names ...string) Option { return func(s *Scenario) { s.Classes = names } }

// WithAdmission selects the serve scenario's per-shard admission policy
// (see AdmissionNames).
func WithAdmission(name string) Option { return func(s *Scenario) { s.Admission = name } }

// WithRequestBytes sets the size of one RNG request.
func WithRequestBytes(n int) Option { return func(s *Scenario) { s.RequestBytes = n } }

// WithWarmupTicks sets the warmup length; 0 measures from cold start.
func WithWarmupTicks(n int64) Option { return func(s *Scenario) { s.WarmupTicks = &n } }

// WithWindowTicks sets the measurement window length.
func WithWindowTicks(n int64) Option { return func(s *Scenario) { s.WindowTicks = n } }

// WithShards sets the serve scenario's channel shard count.
func WithShards(n int) Option { return func(s *Scenario) { s.Shards = n } }

// WithRouter selects the serve scenario's request routing policy.
func WithRouter(name string) Option { return func(s *Scenario) { s.Router = name } }

// WithHealth switches the serve scenario's online entropy health
// monitoring ("on" or "off").
func WithHealth(mode string) Option { return func(s *Scenario) { s.Health = mode } }

// WithFault selects the serve scenario's injected entropy degradation
// profile (see FaultNames). A fault implies health monitoring.
func WithFault(name string) Option { return func(s *Scenario) { s.Fault = name } }

// WithWarm switches the serve scenario's checkpointed warm starts
// ("on" or "off").
func WithWarm(mode string) Option { return func(s *Scenario) { s.Warm = mode } }

// WithCheckpoint sets the serve scenario's periodic checkpoint/resume
// interval in ticks (0 = off).
func WithCheckpoint(ticks int64) Option { return func(s *Scenario) { s.Checkpoint = ticks } }

// ExperimentIDs lists the accepted figure-scenario experiment ids in
// stable order (the paper's figure/table identifiers).
func ExperimentIDs() []string { return sim.ExperimentIDs() }

// DesignNames lists the accepted design names, sorted.
func DesignNames() []string { return sim.DesignNames() }

// RouterNames lists the accepted serve-scenario router policy names,
// sorted.
func RouterNames() []string { return sim.RouterNames() }

// FaultNames lists the accepted serve-scenario fault profile names,
// sorted.
func FaultNames() []string { return trng.FaultNames() }

// ClassNames lists the accepted serve-scenario request class names,
// sorted.
func ClassNames() []string { return sim.ClassNames() }

// AdmissionNames lists the accepted serve-scenario admission policy
// names, sorted.
func AdmissionNames() []string { return sim.AdmissionNames() }

// Normalized returns the scenario with the kind-specific semantic
// defaults filled in, mirroring the simulator's own defaulting
// (sim.RunConfig.Normalized / sim.ServeConfig.Normalized) in one
// place:
//
//	run:   design drstrange, mechanism drange
//	serve: designs [oblivious drstrange], mechanism drange, the
//	       rngbench default load sweep, poisson arrivals, 8-byte
//	       requests, 20000-tick warmup, 100000-tick window (clients
//	       stays 0 when unset: it defers to DRSTRANGE_CLIENTS, then 8,
//	       like the other deferred serve knobs)
//
// The execution knobs (Engine, Workers, Instructions) stay zero when
// unset: they defer to the DRSTRANGE_* environment at run time, so
// normalizing a scenario never bakes one host's tuning into it.
func (s Scenario) Normalized() Scenario {
	if s.Version == 0 {
		s.Version = SchemaVersion
	}
	switch s.Kind {
	case KindRun:
		if s.Design == "" {
			s.Design = "drstrange"
		}
		if s.Mechanism == "" {
			s.Mechanism = "drange"
		}
	case KindServe:
		if len(s.Designs) == 0 {
			s.Designs = []string{"oblivious", "drstrange"}
		}
		if s.Mechanism == "" {
			s.Mechanism = "drange"
		}
		if len(s.Loads) == 0 {
			s.Loads = []float64{160, 320, 640, 1280, 2560, 3840}
		}
		if s.Arrival == "" {
			s.Arrival = workload.ArrivalPoisson
		}
		if s.RequestBytes <= 0 {
			s.RequestBytes = 8
		}
		if s.WarmupTicks == nil {
			w := int64(20_000)
			s.WarmupTicks = &w
		}
		if s.WindowTicks <= 0 {
			s.WindowTicks = 100_000
		}
	}
	return s
}

// unknownName builds the one error shape every invalid-name path
// shares: the offending value plus the sorted accepted list. The CLIs
// print these verbatim, so the flag-driven and scenario-driven paths
// report identical messages from this single source.
func unknownName(what, got string, valid []string) error {
	return fmt.Errorf("unknown %s %q (valid: %s)", what, got, strings.Join(valid, ", "))
}

// fieldPresence pairs a JSON field name with whether the scenario set
// it, for the cross-kind misuse checks.
type fieldPresence struct {
	name    string
	present bool
}

// misplaced returns the first field of the list that is present: a
// knob set on a scenario kind that ignores it must fail loudly, not
// silently do nothing.
func misplaced(fields []fieldPresence) string {
	for _, f := range fields {
		if f.present {
			return f.name
		}
	}
	return ""
}

// serveOnlyFields lists the serve-specific knobs as set on the
// original (pre-normalization) scenario — used to reject them on the
// other kinds.
func (s Scenario) serveOnlyFields() []fieldPresence {
	return []fieldPresence{
		{"loads_mbps", len(s.Loads) > 0},
		{"arrival", s.Arrival != ""},
		{"burstiness", s.Burstiness != 0},
		{"clients", s.Clients != 0},
		{"think_ticks", s.ThinkTicks != 0},
		{"classes", len(s.Classes) > 0},
		{"admission", s.Admission != ""},
		{"request_bytes", s.RequestBytes != 0},
		{"warmup_ticks", s.WarmupTicks != nil},
		{"window_ticks", s.WindowTicks != 0},
		{"shards", s.Shards != 0},
		{"router", s.Router != ""},
		{"health", s.Health != ""},
		{"fault", s.Fault != ""},
		{"warm", s.Warm != ""},
		{"checkpoint", s.Checkpoint != 0},
	}
}

// Validate checks the scenario top to bottom — schema version, kind,
// every symbolic name against its registry, every magnitude against
// its domain, every field against its kind — and returns the first
// problem found. Defaults are applied first (Validate normalizes a
// copy), so a scenario that leaves optional fields empty validates
// clean; a field set on a kind that ignores it is an error.
func (s Scenario) Validate() error {
	if s.Version != 0 && s.Version != SchemaVersion {
		return fmt.Errorf("unsupported scenario version %d (this build speaks version %d)", s.Version, SchemaVersion)
	}
	n := s.Normalized()
	switch n.Kind {
	case KindFigure, KindRun, KindServe:
	case "":
		return fmt.Errorf("missing scenario kind (want %q, %q or %q)", KindFigure, KindRun, KindServe)
	default:
		return fmt.Errorf("unknown scenario kind %q (want %q, %q or %q)", n.Kind, KindFigure, KindRun, KindServe)
	}

	// Shared execution knobs.
	if n.Engine != "" && n.Engine != sim.EngineEvent && n.Engine != sim.EngineTicked {
		return fmt.Errorf("unknown engine %q (want %s or %s)", n.Engine, sim.EngineEvent, sim.EngineTicked)
	}
	if n.Workers < 0 {
		return fmt.Errorf("workers must be >= 0; got %d", n.Workers)
	}
	if n.Instructions < 0 {
		return fmt.Errorf("instructions must be >= 0; got %d", n.Instructions)
	}
	if n.BufferWords < 0 {
		return fmt.Errorf("buffer_words must be >= 0; got %d", n.BufferWords)
	}
	if n.Mechanism != "" {
		if _, ok := trng.ByName(n.Mechanism); !ok {
			return unknownName("mechanism", n.Mechanism, trng.MechanismNames())
		}
	}
	for _, app := range n.Apps {
		if _, ok := workload.ByName(app); !ok {
			return unknownName("application", app, workload.ProfileNames())
		}
	}

	switch n.Kind {
	case KindFigure:
		if n.Figure == "" {
			return fmt.Errorf("figure scenario needs a figure id (valid: %s)", strings.Join(sim.ExperimentIDs(), ", "))
		}
		if _, ok := sim.Experiments[n.Figure]; !ok {
			return unknownName("experiment", n.Figure, sim.ExperimentIDs())
		}
		// A figure driver chooses its own designs, mechanisms, and
		// workloads; any knob beyond the execution ones is dead weight
		// the user surely expected to act.
		runAndServe := append([]fieldPresence{
			{"design", s.Design != ""},
			{"designs", len(s.Designs) > 0},
			{"mechanism", s.Mechanism != ""},
			{"buffer_words", s.BufferWords != 0},
			{"apps", len(s.Apps) > 0},
			{"rng_mbps", s.RNGMbps != 0},
			{"priorities", len(s.Priorities) > 0},
			{"seed", s.Seed != 0},
		}, s.serveOnlyFields()...)
		if f := misplaced(runAndServe); f != "" {
			return fmt.Errorf("%s is not meaningful on a figure scenario", f)
		}
	case KindRun:
		if n.Figure != "" {
			return fmt.Errorf("figure %q is only meaningful on a figure scenario", n.Figure)
		}
		if len(n.Designs) > 0 {
			return fmt.Errorf("run scenarios take a single design (use designs only with kind %q)", KindServe)
		}
		if f := misplaced(s.serveOnlyFields()); f != "" {
			return fmt.Errorf("%s is only meaningful on a serve scenario", f)
		}
		if _, ok := sim.DesignByName(n.Design); !ok {
			return unknownName("design", n.Design, sim.DesignNames())
		}
		if n.RNGMbps < 0 {
			return fmt.Errorf("rng_mbps must be >= 0; got %g", n.RNGMbps)
		}
		if len(n.Apps) == 0 && n.RNGMbps == 0 {
			return fmt.Errorf("run scenario needs at least one application or a positive rng_mbps")
		}
		cores := len(n.Apps)
		if n.RNGMbps > 0 {
			cores++
		}
		if len(n.Priorities) > cores {
			return fmt.Errorf("priorities lists %d cores but the workload has %d", len(n.Priorities), cores)
		}
	case KindServe:
		if n.Figure != "" {
			return fmt.Errorf("figure %q is only meaningful on a figure scenario", n.Figure)
		}
		if n.Design != "" {
			return fmt.Errorf("serve scenarios compare designs (plural); move %q into designs", n.Design)
		}
		if len(n.Priorities) > 0 {
			return fmt.Errorf("priorities are only meaningful on a run scenario")
		}
		if s.RNGMbps != 0 {
			return fmt.Errorf("rng_mbps is only meaningful on a run scenario (serve load comes from loads_mbps)")
		}
		if s.Instructions != 0 {
			return fmt.Errorf("instructions is not meaningful on a serve scenario (the horizon is warmup_ticks + window_ticks)")
		}
		for _, d := range n.Designs {
			if _, ok := sim.DesignByName(d); !ok {
				return unknownName("design", d, sim.DesignNames())
			}
		}
		for _, l := range n.Loads {
			if l <= 0 {
				return fmt.Errorf("offered loads must be positive Mb/s values; got %g", l)
			}
		}
		if !workload.ValidArrival(n.Arrival) {
			return unknownName("arrival process", n.Arrival, workload.ArrivalNames())
		}
		if n.Burstiness < 0 || n.Burstiness > 0.32 {
			return fmt.Errorf("burstiness must be in [0, 0.32]; got %g", n.Burstiness)
		}
		if *n.WarmupTicks < 0 {
			return fmt.Errorf("warmup_ticks must be >= 0; got %d", *n.WarmupTicks)
		}
		if n.WindowTicks < 0 {
			return fmt.Errorf("window_ticks must be >= 0; got %d", n.WindowTicks)
		}
		if n.Shards < 0 {
			return fmt.Errorf("shards must be >= 0; got %d", n.Shards)
		}
		if n.Shards > 1024 {
			return fmt.Errorf("shards must be <= 1024; got %d", n.Shards)
		}
		if n.Router != "" && !sim.ValidRouter(n.Router) {
			return unknownName("router", n.Router, sim.RouterNames())
		}
		switch n.Health {
		case "", "on", "off":
		default:
			return fmt.Errorf("unknown health mode %q (want \"on\" or \"off\")", n.Health)
		}
		if n.Fault != "" && !trng.ValidFault(n.Fault) {
			return unknownName("fault", n.Fault, trng.FaultNames())
		}
		if n.Fault != "" && n.Health == "off" {
			return fmt.Errorf("fault %q needs health monitoring; drop health or set it to \"on\"", n.Fault)
		}
		switch n.Warm {
		case "", "on", "off":
		default:
			return fmt.Errorf("unknown warm mode %q (want \"on\" or \"off\")", n.Warm)
		}
		if n.Checkpoint < 0 {
			return fmt.Errorf("checkpoint must be >= 0; got %d", n.Checkpoint)
		}
		if n.Clients < 0 {
			return fmt.Errorf("clients must be >= 0; got %d", n.Clients)
		}
		if n.ThinkTicks < 0 {
			return fmt.Errorf("think_ticks must be >= 0; got %d", n.ThinkTicks)
		}
		if n.ThinkTicks > 0 && n.Warm == "on" {
			return fmt.Errorf("warm starts are open-loop only (the warm image is background-only and shared across loads); drop warm or think_ticks")
		}
		for _, c := range n.Classes {
			if !sim.ValidClass(c) {
				return unknownName("request class", c, sim.ClassNames())
			}
		}
		if n.Admission != "" && !sim.ValidAdmission(n.Admission) {
			return unknownName("admission policy", n.Admission, sim.AdmissionNames())
		}
	}
	return nil
}

// ParseScenario decodes a JSON scenario, rejecting unknown fields (a
// typoed knob must fail loudly, not silently fall back to a default).
// The result is parsed only — call Validate, or let Run do it.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("parsing scenario: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return Scenario{}, fmt.Errorf("parsing scenario: trailing data after the JSON object")
	}
	return sc, nil
}

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	sc, err := ParseScenario(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// MarshalIndentJSON serializes the scenario in the canonical on-disk
// shape (two-space indent, trailing newline) — what the golden files
// and the examples write.
func (s Scenario) MarshalIndentJSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// runConfig lowers a validated run scenario onto the simulator's
// RunConfig. Names resolve unconditionally: Validate vetted them.
func (s Scenario) runConfig() sim.RunConfig {
	n := s.Normalized()
	design, _ := sim.DesignByName(n.Design)
	mech, _ := trng.ByName(n.Mechanism)
	return sim.RunConfig{
		Design:       design,
		Mix:          workload.Mix{Name: mixName(n.Apps), Apps: n.Apps, RNGMbps: n.RNGMbps},
		Mech:         mech,
		BufferWords:  n.BufferWords,
		Instructions: n.Instructions, // 0 defers to DRSTRANGE_INSTR via Normalized
		Priorities:   n.Priorities,
		Seed:         n.Seed,
		Engine:       n.Engine, // "" defers to DRSTRANGE_ENGINE via Normalized
	}
}

// serveConfig lowers a validated serve scenario onto the simulator's
// ServeConfig (minus the design, which the sweep loop varies) plus the
// resolved design comparison set.
func (s Scenario) serveConfig() (sim.ServeConfig, []sim.Design) {
	n := s.Normalized()
	mech, _ := trng.ByName(n.Mechanism)
	designs := make([]sim.Design, len(n.Designs))
	for i, name := range n.Designs {
		designs[i], _ = sim.DesignByName(name)
	}
	bg := workload.Mix{Name: mixName(n.Apps), Apps: n.Apps}
	return sim.ServeConfig{
		Mech:         mech,
		BufferWords:  n.BufferWords,
		Background:   bg,
		Clients:      n.Clients, // 0 defers to DRSTRANGE_CLIENTS via ServeConfig.Normalized
		ThinkTicks:   n.ThinkTicks,
		Classes:      n.Classes,
		Admission:    n.Admission, // "" defers to DRSTRANGE_ADMISSION likewise
		RequestBytes: n.RequestBytes,
		Arrival:      n.Arrival,
		Burstiness:   n.Burstiness,
		WarmupTicks:  *n.WarmupTicks,
		WindowTicks:  n.WindowTicks,
		Seed:         n.Seed,
		Shards:       n.Shards, // 0 defers to DRSTRANGE_SHARDS via ServeConfig.Normalized
		Router:       n.Router, // "" defers to DRSTRANGE_ROUTER likewise
		Health:       n.Health, // "" defers to DRSTRANGE_HEALTH likewise
		Fault:        n.Fault,  // "" defers to DRSTRANGE_FAULT likewise
		Warm:         n.Warm,   // "" defers to DRSTRANGE_WARM likewise
		Checkpoint:   n.Checkpoint,
		Engine:       n.Engine, // "" defers to DRSTRANGE_ENGINE likewise
	}, designs
}

// mixName names a mix the way the CLIs always have: profile names
// joined by "+" (empty for a dedicated RNG system).
func mixName(apps []string) string { return strings.Join(apps, "+") }
