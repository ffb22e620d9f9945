package sim

// The DRSTRANGE_* environment knob, defined and validated in one
// place. It only supplies a default: a value a caller sets — a config
// field, a scenario field, or a cmd/ flag — always wins, so the knob
// is no process state a run can change. The cmd/ tools expose a
// matching -engine flag.
//
// Accepted values:
//
//	DRSTRANGE_ENGINE   "event" (default) or "ticked" — the inner loop of
//	                   a config whose Engine is ""; the two engines
//	                   produce bit-identical results.
//
// Everything else a run can vary — instruction budget, worker count,
// shards, router, health, fault, warm starts, clients, admission — is a
// config or scenario field with a constant default, never an
// environment knob.
//
// The knob set to anything outside its accepted values is ignored with
// a single warning on stderr (it used to fall back silently, which made
// a typo indistinguishable from the default). An environment variable
// with the DRSTRANGE_ prefix that names no knob at all
// (DRSTRANGE_ENGIN, say, or a retired knob) also warns once — see
// WarnUnknownEnvKnobs.

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

var (
	envWarnMu   sync.Mutex
	envWarned   = map[string]bool{}
	envWarnDest = io.Writer(os.Stderr) // swapped out by the env tests
)

// envWarnOnce emits one warning per knob per process on stderr.
func envWarnOnce(knob, msg string) {
	envWarnMu.Lock()
	defer envWarnMu.Unlock()
	if envWarned[knob] {
		return
	}
	envWarned[knob] = true //drstrange:nondet-ok warn-once bookkeeping for stderr; no simulation reads it
	fmt.Fprintf(envWarnDest, "drstrange: %s\n", msg)
}

// DefaultEngine resolves the engine of a config that names none:
// DRSTRANGE_ENGINE, or event. Anything else warns once and falls back.
// Not cached: tests may legitimately change the knob between runs.
func DefaultEngine() string {
	switch v := os.Getenv("DRSTRANGE_ENGINE"); v {
	case "", EngineEvent:
		return EngineEvent
	case EngineTicked:
		return EngineTicked
	default:
		envWarnOnce("DRSTRANGE_ENGINE",
			fmt.Sprintf("ignoring DRSTRANGE_ENGINE=%q: want %q or %q", v, EngineEvent, EngineTicked))
		return EngineEvent
	}
}

// knownEnvKnobs is the complete DRSTRANGE_ namespace. WarnUnknownEnvKnobs
// checks the environment against it; keep it in sync with the doc block
// above.
var knownEnvKnobs = map[string]bool{
	"DRSTRANGE_ENGINE": true,
}

// WarnUnknownEnvKnobs warns once per variable about environment
// variables in the DRSTRANGE_ namespace that name no knob at all —
// typo detection (DRSTRANGE_ENGIN for DRSTRANGE_ENGINE), since a
// misspelled or retired knob is otherwise indistinguishable from an
// unset one. The public API's entry points call it once per execution.
func WarnUnknownEnvKnobs() {
	for _, kv := range os.Environ() {
		name, _, ok := strings.Cut(kv, "=")
		if !ok || !strings.HasPrefix(name, "DRSTRANGE_") || knownEnvKnobs[name] {
			continue
		}
		envWarnOnce(name,
			fmt.Sprintf("unrecognized environment variable %s (known knobs: %s)", name, strings.Join(sortedEnvKnobs(), ", ")))
	}
}

// sortedEnvKnobs lists the known knob names, sorted.
func sortedEnvKnobs() []string {
	out := make([]string, 0, len(knownEnvKnobs))
	for k := range knownEnvKnobs { //drstrange:nondet-ok collect-then-sort: the slice is sorted before it is returned
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EnvKnobSnapshot returns the DRSTRANGE_* knobs currently set in the
// environment, keyed by knob name. Tooling that records knob
// provenance (the benchmark in bench/ refuses to measure under any set
// knob, say) reads the namespace through this accessor instead of its
// own os.Getenv loop, so the envknob analyzer can keep every raw
// environment read pinned to this file.
func EnvKnobSnapshot() map[string]string {
	out := map[string]string{}
	for _, k := range sortedEnvKnobs() {
		if v := os.Getenv(k); v != "" {
			out[k] = v
		}
	}
	return out
}
