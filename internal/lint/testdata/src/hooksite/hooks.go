// Package hooksite exercises hookcheck: every installation form an
// OnRNGRound / OnInjectionComplete hook can take, with direct,
// transitive, and field-write violations next to hooks the contract
// permits.
package hooksite

import (
	"internal/memctrl"
	"internal/sim"
)

var rounds int

// DirectStep installs a literal that steps the system from inside the
// round — the canonical violation.
func DirectStep(sys *sim.System) memctrl.Config {
	return memctrl.Config{
		OnRNGRound: func(words int) { // want `hook OnRNGRound must not re-enter the simulator: reaches System\.Step \(no-reentry contract`
			sys.Step()
		},
	}
}

// helper hides the reentry one static call away.
func helper(sys *sim.System) {
	sys.InjectRNG(0, 1)
}

// Transitive reaches the injection port through helper; the diagnostic
// names the call chain.
func Transitive(sys *sim.System) memctrl.Config {
	cfg := memctrl.Config{}
	cfg.OnRNGRound = func(words int) { // want `reaches System\.InjectRNG via helper`
		helper(sys)
	}
	return cfg
}

// Registered violates through the registration call with a literal.
func Registered(sys *sim.System) {
	sys.OnInjectionComplete(func(id int) { // want `hook OnInjectionComplete must not re-enter the simulator: reaches System\.StepTo`
		sys.StepTo(100)
	})
}

// LocalVar installs a hook through a local function variable, resolved
// to its := function literal.
func LocalVar(sys *sim.System, ctrl *memctrl.Controller) {
	onDone := func(id int) {
		ctrl.Tick()
	}
	sys.OnInjectionComplete(onDone) // want `re-enters Controller\.Tick`
}

// FieldWrite mutates controller state from inside a hook.
func FieldWrite(sys *sim.System, ctrl *memctrl.Controller) {
	sys.OnInjectionComplete(func(id int) { // want `writes a Controller field directly`
		ctrl.Credits++
	})
}

// Rebind registers the round hook through the controller's
// registration method, a hook site like any other.
func Rebind(sys *sim.System, ctrl *memctrl.Controller) {
	ctrl.OnRNGRound(func(words int) { // want `hook OnRNGRound must not re-enter the simulator: reaches System\.Step`
		sys.Step()
	})
}

// Clean aggregates into package state and uses the one sanctioned
// reentry; hookcheck must stay silent.
func Clean(sys *sim.System, ctrl *memctrl.Controller) {
	sys.OnInjectionComplete(func(id int) {
		rounds++
		ctrl.SetEntropySuspect(true)
	})
}

// CleanConfig installs a hook that only folds its argument.
func CleanConfig() memctrl.Config {
	return memctrl.Config{
		OnRNGRound: func(words int) {
			rounds += words
		},
	}
}

// NilHook clears the hook; nil installs nothing to walk.
func NilHook(sys *sim.System) {
	sys.OnInjectionComplete(nil)
}
