package sim

import (
	"bytes"
	"strings"
	"testing"

	"drstrange/internal/trng"
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

// TestEnvKnobValidation pins the knob contract: good values apply, bad
// values warn exactly once on stderr and fall back to the default.
func TestEnvKnobValidation(t *testing.T) {
	buf := captureEnvWarnings(t, "DRSTRANGE_INSTR", "DRSTRANGE_WORKERS")

	t.Setenv("DRSTRANGE_INSTR", "12345")
	if got := DefaultInstructions(); got != 12345 {
		t.Errorf("DRSTRANGE_INSTR=12345: got %d", got)
	}
	if buf.Len() != 0 {
		t.Errorf("valid knob warned: %q", buf.String())
	}

	for _, bad := range []string{"1e6", "-3", "0", "lots"} {
		t.Setenv("DRSTRANGE_INSTR", bad)
		if got := DefaultInstructions(); got != 100_000 {
			t.Errorf("DRSTRANGE_INSTR=%q: got %d, want default", bad, got)
		}
	}
	// Repeated resolution of a bad knob warns exactly once.
	if n := strings.Count(buf.String(), "DRSTRANGE_INSTR"); n != 1 {
		t.Errorf("bad DRSTRANGE_INSTR warned %d times, want 1:\n%s", n, buf.String())
	}

	t.Setenv("DRSTRANGE_WORKERS", "zero")
	if got := envWorkers(); got != 0 {
		t.Errorf("DRSTRANGE_WORKERS=zero: got %d, want unset", got)
	}
	if n := strings.Count(buf.String(), "DRSTRANGE_WORKERS"); n != 1 {
		t.Errorf("bad DRSTRANGE_WORKERS warned %d times, want 1", n)
	}
	if !strings.Contains(buf.String(), "positive integer") {
		t.Errorf("warning does not state the accepted values: %q", buf.String())
	}
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

// TestEnvShardKnobs pins the serve-topology knobs: valid values apply,
// bad values warn once and fall back, and the router warning names the
// sorted accepted list.
func TestEnvShardKnobs(t *testing.T) {
	buf := captureEnvWarnings(t, "DRSTRANGE_SHARDS", "DRSTRANGE_ROUTER")

	t.Setenv("DRSTRANGE_SHARDS", "4")
	if got := DefaultShards(); got != 4 {
		t.Errorf("DRSTRANGE_SHARDS=4: got %d", got)
	}
	t.Setenv("DRSTRANGE_ROUTER", RouterJSQ)
	if got := DefaultRouter(); got != RouterJSQ {
		t.Errorf("DRSTRANGE_ROUTER=jsq: got %q", got)
	}
	if buf.Len() != 0 {
		t.Errorf("valid knobs warned: %q", buf.String())
	}

	for _, bad := range []string{"0", "-2", "many"} {
		t.Setenv("DRSTRANGE_SHARDS", bad)
		if got := DefaultShards(); got != 1 {
			t.Errorf("DRSTRANGE_SHARDS=%q: got %d, want 1", bad, got)
		}
	}
	if n := strings.Count(buf.String(), "DRSTRANGE_SHARDS"); n != 1 {
		t.Errorf("bad DRSTRANGE_SHARDS warned %d times, want 1:\n%s", n, buf.String())
	}

	t.Setenv("DRSTRANGE_ROUTER", "zipf")
	for i := 0; i < 3; i++ {
		if got := DefaultRouter(); got != RouterRoundRobin {
			t.Errorf("DRSTRANGE_ROUTER=zipf: got %q, want round-robin", got)
		}
	}
	if n := strings.Count(buf.String(), "DRSTRANGE_ROUTER"); n != 1 {
		t.Errorf("bad DRSTRANGE_ROUTER warned %d times, want 1:\n%s", n, buf.String())
	}
	if want := strings.Join(RouterNames(), ", "); !strings.Contains(buf.String(), want) {
		t.Errorf("router warning does not list the valid names %q: %q", want, buf.String())
	}
}

// TestWarnIgnoredServeKnobs pins the cross-kind warning: a set
// DRSTRANGE_SHARDS/DRSTRANGE_ROUTER is called out (once per knob) on
// non-serve scenario kinds instead of being silently dead.
func TestWarnIgnoredServeKnobs(t *testing.T) {
	buf := captureEnvWarnings(t, "DRSTRANGE_SHARDS", "DRSTRANGE_ROUTER")
	t.Setenv("DRSTRANGE_SHARDS", "4")
	t.Setenv("DRSTRANGE_ROUTER", RouterSticky)
	WarnIgnoredServeKnobs("figure")
	WarnIgnoredServeKnobs("figure")
	out := buf.String()
	for _, knob := range []string{"DRSTRANGE_SHARDS", "DRSTRANGE_ROUTER"} {
		if n := strings.Count(out, knob); n != 1 {
			t.Errorf("%s warned %d times, want 1:\n%s", knob, n, out)
		}
	}
	if !strings.Contains(out, `ignored on kind "figure"`) {
		t.Errorf("warning does not name the kind: %q", out)
	}

	// Unset knobs stay silent.
	buf2 := captureEnvWarnings(t, "DRSTRANGE_SHARDS", "DRSTRANGE_ROUTER")
	t.Setenv("DRSTRANGE_SHARDS", "")
	t.Setenv("DRSTRANGE_ROUTER", "")
	WarnIgnoredServeKnobs("run")
	if buf2.Len() != 0 {
		t.Errorf("unset knobs warned: %q", buf2.String())
	}

	// The health knobs are serve-only too.
	buf3 := captureEnvWarnings(t, "DRSTRANGE_HEALTH", "DRSTRANGE_FAULT")
	t.Setenv("DRSTRANGE_HEALTH", "on")
	t.Setenv("DRSTRANGE_FAULT", "burst")
	WarnIgnoredServeKnobs("figure")
	for _, knob := range []string{"DRSTRANGE_HEALTH", "DRSTRANGE_FAULT"} {
		if n := strings.Count(buf3.String(), knob); n != 1 {
			t.Errorf("%s warned %d times, want 1:\n%s", knob, n, buf3.String())
		}
	}
}

// TestEnvHealthKnobs pins DRSTRANGE_HEALTH/DRSTRANGE_FAULT: valid
// values apply, bad values warn once and fall back, and the fault
// warning names the sorted accepted list.
func TestEnvHealthKnobs(t *testing.T) {
	buf := captureEnvWarnings(t, "DRSTRANGE_HEALTH", "DRSTRANGE_FAULT")

	t.Setenv("DRSTRANGE_HEALTH", "on")
	if got := DefaultHealth(); got != "on" {
		t.Errorf("DRSTRANGE_HEALTH=on: got %q", got)
	}
	t.Setenv("DRSTRANGE_HEALTH", "off")
	if got := DefaultHealth(); got != "off" {
		t.Errorf("DRSTRANGE_HEALTH=off: got %q", got)
	}
	t.Setenv("DRSTRANGE_HEALTH", "")
	if got := DefaultHealth(); got != "off" {
		t.Errorf("unset DRSTRANGE_HEALTH: got %q, want off", got)
	}
	t.Setenv("DRSTRANGE_FAULT", trng.FaultBiasRamp)
	if got := DefaultFault(); got != trng.FaultBiasRamp {
		t.Errorf("DRSTRANGE_FAULT=bias-ramp: got %q", got)
	}
	t.Setenv("DRSTRANGE_FAULT", "")
	if got := DefaultFault(); got != "" {
		t.Errorf("unset DRSTRANGE_FAULT: got %q, want none", got)
	}
	if buf.Len() != 0 {
		t.Errorf("valid knobs warned: %q", buf.String())
	}

	t.Setenv("DRSTRANGE_HEALTH", "maybe")
	for i := 0; i < 3; i++ {
		if got := DefaultHealth(); got != "off" {
			t.Errorf("DRSTRANGE_HEALTH=maybe: got %q, want off", got)
		}
	}
	if n := strings.Count(buf.String(), "DRSTRANGE_HEALTH"); n != 1 {
		t.Errorf("bad DRSTRANGE_HEALTH warned %d times, want 1:\n%s", n, buf.String())
	}
	t.Setenv("DRSTRANGE_FAULT", "meteor")
	for i := 0; i < 3; i++ {
		if got := DefaultFault(); got != "" {
			t.Errorf("DRSTRANGE_FAULT=meteor: got %q, want none", got)
		}
	}
	if n := strings.Count(buf.String(), "DRSTRANGE_FAULT"); n != 1 {
		t.Errorf("bad DRSTRANGE_FAULT warned %d times, want 1:\n%s", n, buf.String())
	}
	if want := strings.Join(trng.FaultNames(), ", "); !strings.Contains(buf.String(), want) {
		t.Errorf("fault warning does not list the valid names %q: %q", want, buf.String())
	}
}

// TestEnvClosedLoopKnobs pins DRSTRANGE_CLIENTS/DRSTRANGE_ADMISSION:
// valid values apply, bad values warn once and fall back, and the
// admission warning names the sorted accepted list.
func TestEnvClosedLoopKnobs(t *testing.T) {
	buf := captureEnvWarnings(t, "DRSTRANGE_CLIENTS", "DRSTRANGE_ADMISSION")

	t.Setenv("DRSTRANGE_CLIENTS", "32")
	if got := DefaultClients(); got != 32 {
		t.Errorf("DRSTRANGE_CLIENTS=32: got %d", got)
	}
	t.Setenv("DRSTRANGE_CLIENTS", "")
	if got := DefaultClients(); got != 8 {
		t.Errorf("unset DRSTRANGE_CLIENTS: got %d, want 8", got)
	}
	t.Setenv("DRSTRANGE_ADMISSION", AdmissionDropLowest)
	if got := DefaultAdmission(); got != AdmissionDropLowest {
		t.Errorf("DRSTRANGE_ADMISSION=drop-lowest-class: got %q", got)
	}
	t.Setenv("DRSTRANGE_ADMISSION", "")
	if got := DefaultAdmission(); got != AdmissionNone {
		t.Errorf("unset DRSTRANGE_ADMISSION: got %q, want none", got)
	}
	if buf.Len() != 0 {
		t.Errorf("valid knobs warned: %q", buf.String())
	}

	for _, bad := range []string{"0", "-4", "everyone"} {
		t.Setenv("DRSTRANGE_CLIENTS", bad)
		if got := DefaultClients(); got != 8 {
			t.Errorf("DRSTRANGE_CLIENTS=%q: got %d, want 8", bad, got)
		}
	}
	if n := strings.Count(buf.String(), "DRSTRANGE_CLIENTS"); n != 1 {
		t.Errorf("bad DRSTRANGE_CLIENTS warned %d times, want 1:\n%s", n, buf.String())
	}

	t.Setenv("DRSTRANGE_ADMISSION", "drop-everything")
	for i := 0; i < 3; i++ {
		if got := DefaultAdmission(); got != AdmissionNone {
			t.Errorf("DRSTRANGE_ADMISSION=drop-everything: got %q, want none", got)
		}
	}
	if n := strings.Count(buf.String(), "DRSTRANGE_ADMISSION"); n != 1 {
		t.Errorf("bad DRSTRANGE_ADMISSION warned %d times, want 1:\n%s", n, buf.String())
	}
	if want := strings.Join(AdmissionNames(), ", "); !strings.Contains(buf.String(), want) {
		t.Errorf("admission warning does not list the valid names %q: %q", want, buf.String())
	}

	// Both knobs are serve-only: other kinds call them out.
	buf2 := captureEnvWarnings(t, "DRSTRANGE_CLIENTS", "DRSTRANGE_ADMISSION")
	t.Setenv("DRSTRANGE_CLIENTS", "32")
	t.Setenv("DRSTRANGE_ADMISSION", AdmissionThreshold)
	WarnIgnoredServeKnobs("figure")
	WarnIgnoredServeKnobs("figure")
	for _, knob := range []string{"DRSTRANGE_CLIENTS", "DRSTRANGE_ADMISSION"} {
		if n := strings.Count(buf2.String(), knob); n != 1 {
			t.Errorf("%s warned %d times, want 1:\n%s", knob, n, buf2.String())
		}
	}
}

// TestWarnUnknownEnvKnobs pins typo detection: a DRSTRANGE_-prefixed
// variable that names no knob warns once (listing the known knobs), a
// known knob never does, and other prefixes are never scanned. A retired
// knob (DRSTRANGE_EVENTQ) is unrecognized like any typo.
func TestWarnUnknownEnvKnobs(t *testing.T) {
	buf := captureEnvWarnings(t, "DRSTRANGE_SHARD", "DRSTRANGE_SHARDS", "DRSTRANGE_FAULTY", "DRSTRANGE_EVENTQ")
	t.Setenv("DRSTRANGE_SHARD", "4") // typo for DRSTRANGE_SHARDS
	t.Setenv("DRSTRANGE_FAULTY", "burst")
	t.Setenv("DRSTRANGE_EVENTQ", "scan") // retired
	t.Setenv("DRSTRANGE_SHARDS", "2")    // known: silent
	t.Setenv("OTHERPREFIX_KNOB", "1")    // out of namespace: silent
	WarnUnknownEnvKnobs()
	WarnUnknownEnvKnobs()
	out := buf.String()
	for _, name := range []string{"DRSTRANGE_SHARD", "DRSTRANGE_FAULTY", "DRSTRANGE_EVENTQ"} {
		if n := strings.Count(out, "variable "+name+" "); n != 1 {
			t.Errorf("%s warned %d times, want 1:\n%s", name, n, out)
		}
	}
	if strings.Contains(out, "variable DRSTRANGE_SHARDS ") {
		t.Errorf("known knob DRSTRANGE_SHARDS warned: %q", out)
	}
	if strings.Contains(out, "OTHERPREFIX") {
		t.Errorf("out-of-namespace variable warned: %q", out)
	}
	if !strings.Contains(out, "DRSTRANGE_HEALTH") {
		t.Errorf("warning does not list the known knobs: %q", out)
	}
}
