// Package lint is drstrangelint: a suite of static analyzers that move
// the simulator's determinism, hook, and hot-path contracts from
// test-time (golden and differential tests catching violations after
// the fact) to compile-time.
//
// Four analyzers:
//
//   - detlint: forbids sources of nondeterminism inside the simulation
//     core packages (internal/sim, internal/memctrl, internal/dram,
//     internal/cpu, internal/trng, internal/workload): wall-clock reads
//     (time.Now/time.Since), the globally seeded math/rand, iteration
//     over a map whose body writes to non-local state or output,
//     multi-case select statements, sync.Map iteration, and writes to
//     package-level variables from function bodies. The escape
//     hatch is a "//drstrange:nondet-ok <reason>" comment on (or
//     directly above) the flagged line; a reason is mandatory.
//   - hookcheck: enforces the documented no-reentry contract of the
//     OnRNGRound and OnInjectionComplete hooks — a hook body, followed
//     transitively through static calls, must not reach System.Step,
//     System.StepTo, or System.InjectRNG, and must not re-enter the
//     controller's request path (Tick, Submit*, Recycle, RebindHooks)
//     or mutate a Controller's fields. Controller.SetEntropySuspect is
//     the one sanctioned reentry: the health monitor's trip-quarantine
//     is designed to fire synchronously from inside a round.
//   - noalloc: functions annotated "//drstrange:noalloc" — the serve,
//     engine, and health hot paths — are checked for allocation-forcing
//     constructs: variable-capturing closures, implicit conversions to
//     interface types, fmt calls, and append/make inside loops. The
//     escape hatch for a justified construct (an amortized freelist
//     append, say) is "//drstrange:alloc-ok <reason>".
//   - envknob: every os.Getenv/os.LookupEnv of a DRSTRANGE_* name, any
//     environment lookup with a non-constant name, and every
//     os.Environ scan must live in internal/sim/env.go, keeping the
//     warn-once validation and the DRSTRANGE_ typo scan exhaustive.
//
// The suite is built on internal/lint/analysis, a dependency-free
// mirror of the golang.org/x/tools/go/analysis API (see that package's
// doc for why x/tools itself is not vendored), and is driven by
// cmd/drstrangelint over the whole module. Only non-test files are
// analyzed: the contracts bind production code, while tests routinely
// probe nondeterminism on purpose.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"drstrange/internal/lint/analysis"
)

// Analyzers returns the full drstrangelint suite in the order the
// driver runs them.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Detlint, Envknob, Hookcheck, Noalloc}
}

// guardedPkgs lists the simulation-core packages whose determinism
// detlint guards, as import-path suffixes: every tick executed in these
// packages is on the byte-identical replay path.
var guardedPkgs = []string{
	"internal/sim",
	"internal/memctrl",
	"internal/dram",
	"internal/cpu",
	"internal/trng",
	"internal/workload",
}

// guardedPath reports whether an import path is one of the guarded
// simulation-core packages (suffix match, so both the module-qualified
// "drstrange/internal/sim" and an analysistest tree's "internal/sim"
// qualify).
func guardedPath(path string) bool {
	for _, g := range guardedPkgs {
		if path == g || strings.HasSuffix(path, "/"+g) {
			return true
		}
	}
	return false
}

// pkgPathSuffix reports whether the import path of pkg (possibly nil,
// for universe-scope objects) ends with the given suffix path.
func pkgPathSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// calleeFunc resolves a call expression to the static *types.Func it
// invokes: a package-level function, a method with a static receiver,
// or an imported function. Calls through function-typed variables,
// fields, and interface values resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvNamed returns the named type of a method's receiver (through one
// pointer), or nil for a plain function.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// rootIdent walks selector/index/star/paren chains to the base
// identifier of an assignable expression: the object whose storage an
// assignment ultimately reaches. Expressions not rooted at an
// identifier (a call result, say) return nil.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside the
// [pos, end] source range — the locality test the analyzers use to
// separate loop-local state from captured or outer state.
func declaredWithin(obj types.Object, pos, end token.Pos) bool {
	return obj != nil && obj.Pos() != token.NoPos && obj.Pos() >= pos && obj.Pos() <= end
}
