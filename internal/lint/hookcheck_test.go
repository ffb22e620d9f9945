package lint_test

import (
	"testing"

	"drstrange/internal/lint"
	"drstrange/internal/lint/analysistest"
)

// TestHookcheck pins the no-reentry contract on every hook
// installation form: composite-literal field, field assignment, the
// OnInjectionComplete and OnRNGRound registration calls, and a local
// function variable — with direct, transitive (chain-reporting), and
// Controller-field-write violations, plus the sanctioned
// SetEntropySuspect reentry staying silent.
func TestHookcheck(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lint.Hookcheck,
		"hooksite", "internal/sim", "internal/memctrl")
}
