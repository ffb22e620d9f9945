package sim

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// captureEnvWarnings redirects knob warnings into a buffer and clears
// the warned-knob set for the test's knobs.
func captureEnvWarnings(t *testing.T, knobs ...string) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	envWarnMu.Lock()
	old := envWarnDest
	envWarnDest = &buf
	for _, k := range knobs {
		delete(envWarned, k)
	}
	envWarnMu.Unlock()
	t.Cleanup(func() {
		envWarnMu.Lock()
		envWarnDest = old
		for _, k := range knobs {
			delete(envWarned, k)
		}
		envWarnMu.Unlock()
	})
	return &buf
}

// TestEnvEngineValidation pins the engine knob: valid values resolve,
// the empty value means the event default, a bad value warns exactly
// once and falls back, and a config that names its engine ignores the
// knob.
func TestEnvEngineValidation(t *testing.T) {
	buf := captureEnvWarnings(t, "DRSTRANGE_ENGINE")

	for _, tc := range []struct{ env, want string }{
		{"", EngineEvent}, {EngineEvent, EngineEvent}, {EngineTicked, EngineTicked},
	} {
		t.Setenv("DRSTRANGE_ENGINE", tc.env)
		if got := DefaultEngine(); got != tc.want {
			t.Errorf("DRSTRANGE_ENGINE=%q: got %q, want %q", tc.env, got, tc.want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("valid knob warned: %q", buf.String())
	}

	t.Setenv("DRSTRANGE_ENGINE", "warp")
	for i := 0; i < 3; i++ {
		if got := DefaultEngine(); got != EngineEvent {
			t.Errorf("DRSTRANGE_ENGINE=warp: got %q, want event", got)
		}
	}
	if n := strings.Count(buf.String(), "DRSTRANGE_ENGINE"); n != 1 {
		t.Errorf("bad DRSTRANGE_ENGINE warned %d times, want 1:\n%s", n, buf.String())
	}

	t.Setenv("DRSTRANGE_ENGINE", EngineTicked)
	if got := (RunConfig{Engine: EngineEvent}).Normalized().Engine; got != EngineEvent {
		t.Errorf("RunConfig pinned to event normalized to %q", got)
	}
	if got := (ServeConfig{}).Normalized().Engine; got != EngineTicked {
		t.Errorf("unset ServeConfig engine normalized to %q, want the env's ticked", got)
	}
}

// TestWarnUnknownEnvKnobs pins typo detection: a DRSTRANGE_-prefixed
// variable that names no knob warns once (listing the known knobs), a
// known knob never does, and other prefixes are never scanned. Retired
// knobs are unrecognized like any typo, and setting them changes
// nothing: the instruction budget and the serve defaults stay the
// constants and a zero worker count still sizes the pool at GOMAXPROCS.
func TestWarnUnknownEnvKnobs(t *testing.T) {
	retired := map[string]string{
		"DRSTRANGE_INSTR":     "5000",
		"DRSTRANGE_WORKERS":   strconv.Itoa(runtime.GOMAXPROCS(0) + 1),
		"DRSTRANGE_SHARDS":    "4",
		"DRSTRANGE_ROUTER":    RouterJSQ,
		"DRSTRANGE_HEALTH":    "on",
		"DRSTRANGE_FAULT":     "burst",
		"DRSTRANGE_WARM":      "on",
		"DRSTRANGE_CLIENTS":   "32",
		"DRSTRANGE_ADMISSION": AdmissionThreshold,
		"DRSTRANGE_EVENTQ":    "scan",
	}
	unknown := []string{"DRSTRANGE_ENGIN", "DRSTRANGE_BOGUS"}
	for name := range retired {
		unknown = append(unknown, name)
	}
	buf := captureEnvWarnings(t, append(unknown, "DRSTRANGE_ENGINE")...)
	for name, v := range retired {
		t.Setenv(name, v)
	}
	t.Setenv("DRSTRANGE_ENGIN", EngineTicked) // typo for DRSTRANGE_ENGINE
	t.Setenv("DRSTRANGE_BOGUS", "burst")
	t.Setenv("DRSTRANGE_ENGINE", EngineEvent) // known: silent
	t.Setenv("OTHERPREFIX_KNOB", "1")         // out of namespace: silent
	WarnUnknownEnvKnobs()
	WarnUnknownEnvKnobs()
	out := buf.String()
	for _, name := range unknown {
		if n := strings.Count(out, "variable "+name+" "); n != 1 {
			t.Errorf("%s warned %d times, want 1:\n%s", name, n, out)
		}
	}
	if strings.Contains(out, "variable DRSTRANGE_ENGINE ") {
		t.Errorf("known knob DRSTRANGE_ENGINE warned: %q", out)
	}
	if strings.Contains(out, "OTHERPREFIX") {
		t.Errorf("out-of-namespace variable warned: %q", out)
	}
	if !strings.Contains(out, "(known knobs: DRSTRANGE_ENGINE)") {
		t.Errorf("warning does not list the known knobs: %q", out)
	}

	if n := (RunConfig{}).Normalized().Instructions; n != 100_000 {
		t.Errorf("retired knobs set: default instruction budget %d, want 100000", n)
	}
	// A default warmup, so a warm-start default could show through.
	c := ServeConfig{WarmupTicks: -1}.Normalized()
	got := [7]any{c.Shards, c.Router, c.Health, c.Fault, c.Warm, c.Clients, c.Admission}
	want := [7]any{1, RouterRoundRobin, "off", "", "off", 8, AdmissionNone}
	if got != want {
		t.Errorf("retired knobs set: serve defaults %v, want %v", got, want)
	}
	if n := poolOf(WithWorkers(context.Background(), 0)).workers; n != runtime.GOMAXPROCS(0) {
		t.Errorf("retired knobs set: WithWorkers(ctx, 0) sized %d workers, want GOMAXPROCS %d", n, runtime.GOMAXPROCS(0))
	}
}
