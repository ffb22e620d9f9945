package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"drstrange/internal/lint/analysis"
)

// Detlint forbids sources of nondeterminism inside the simulation-core
// packages. Everything those packages compute is on the byte-identical
// replay path: the golden, differential, and snapshot tests all assume
// that a run is a pure function of its configuration, across engines,
// worker counts, and shard topologies.
var Detlint = &analysis.Analyzer{
	Name: "detlint",
	Doc: `forbid nondeterminism sources in the simulation core

Inside internal/sim, internal/memctrl, internal/dram, internal/cpu,
internal/trng, and internal/workload, detlint reports:

  - time.Now and time.Since (wall-clock reads; simulated time is the
    only clock the core may consult)
  - package-level math/rand state (globally seeded and shared; use a
    locally seeded *rand.Rand, or the repo's internal/prng)
  - range over a map whose body writes to state declared outside the
    loop or produces output (map iteration order is randomized)
  - select statements with two or more communication cases (the
    runtime chooses a ready case pseudo-randomly)
  - sync.Map.Range iteration (unordered, like map range)
  - assignment or ++/-- in a function body to a package-level variable
    (process-global state that concurrent runs would share; per-run
    settings belong in a config or on the context)

A finding that is provably order-insensitive can be waived with a
"//drstrange:nondet-ok <reason>" comment on the flagged line or the
line above; the reason is mandatory. In every package (guarded or
not), detlint also flags //drstrange: comments whose verb names no
known directive — a typo'd waiver must not silently stop waiving.`,
	Run: runDetlint,
}

// randConstructors are the package-level math/rand (and /v2) functions
// that build locally seeded state rather than consuming the shared
// global source; they are the deterministic way to use the package.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runDetlint(pass *analysis.Pass) (any, error) {
	guarded := guardedPath(pass.Pkg.Path)
	info := pass.Pkg.Info
	fset := pass.Pkg.Fset
	for _, f := range pass.Pkg.Files {
		dirs := parseDirectives(fset, f)
		checkUnknownDirectives(pass, fset, f)
		if !guarded {
			continue
		}
		checkDirectiveReasons(pass, dirs, dirNondetOK)
		report := func(pos token.Pos, format string, args ...any) {
			if dirs.suppressedBy(fset, pos, dirNondetOK) {
				return
			}
			pass.Reportf(pos, format, args...)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelectorNondet(info, n, report)
			case *ast.RangeStmt:
				checkMapRange(info, n, report)
			case *ast.SelectStmt:
				checkSelect(n, report)
			case *ast.CallExpr:
				checkSyncMapRange(info, n, report)
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						checkGlobalWrite(info, pass.Pkg.Types, lhs, report)
					}
				}
			case *ast.IncDecStmt:
				checkGlobalWrite(info, pass.Pkg.Types, n.X, report)
			}
			return true
		})
	}
	return nil, nil
}

// checkUnknownDirectives flags //drstrange: comments with an unknown
// verb, in every package.
func checkUnknownDirectives(pass *analysis.Pass, fset *token.FileSet, f *ast.File) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			if d, ok := parseDirective(c); ok && !knownDirectives[d.name] {
				pass.Reportf(c.Pos(), "unknown directive //drstrange:%s (known: alloc-ok, noalloc, nondet-ok)", d.name)
			}
		}
	}
}

// checkSelectorNondet flags wall-clock reads and global math/rand use.
func checkSelectorNondet(info *types.Info, sel *ast.SelectorExpr, report func(token.Pos, string, ...any)) {
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if fn, ok := obj.(*types.Func); ok && (fn.Name() == "Now" || fn.Name() == "Since") {
			report(sel.Pos(), "time.%s reads the wall clock; the simulation core must only consult simulated time", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Only package-scope functions and variables consume the shared
		// global source; constructors and types (rand.New, *rand.Rand)
		// are the deterministic per-instance API and stay legal.
		switch obj.(type) {
		case *types.Func, *types.Var:
		default:
			return
		}
		if recvNamedOf(obj) != nil || randConstructors[obj.Name()] {
			return
		}
		report(sel.Pos(), "global %s.%s uses the shared, nondeterministically seeded source; use a locally seeded *rand.Rand or internal/prng", obj.Pkg().Name(), obj.Name())
	}
}

// recvNamedOf returns the receiver type if obj is a method.
func recvNamedOf(obj types.Object) *types.Named {
	if fn, ok := obj.(*types.Func); ok {
		return recvNamed(fn)
	}
	return nil
}

// checkMapRange flags iteration over a map whose body writes to
// non-local state or produces output: with randomized iteration order,
// any order-sensitive effect diverges between runs.
func checkMapRange(info *types.Info, rs *ast.RangeStmt, report func(token.Pos, string, ...any)) {
	tv, ok := info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if what := orderSensitiveEffect(info, rs); what != "" {
		report(rs.For, "map iteration order is randomized and this loop %s; make the effect order-insensitive, sort the keys first, or waive with //drstrange:nondet-ok <reason>", what)
	}
}

// orderSensitiveEffect scans a map-range body for the first effect
// whose result can depend on iteration order; it returns a description
// of the effect, or "" for a body whose writes are all loop-local.
func orderSensitiveEffect(info *types.Info, rs *ast.RangeStmt) string {
	var what string
	local := func(e ast.Expr) (types.Object, bool) {
		id := rootIdent(e)
		if id == nil {
			return nil, true // unrooted (call result etc.): not trackable storage
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return nil, true
		}
		return obj, declaredWithin(obj, rs.Pos(), rs.End())
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				if obj, isLocal := local(lhs); !isLocal {
					what = fmt.Sprintf("writes to %q declared outside the loop", obj.Name())
					return false
				}
			}
		case *ast.IncDecStmt:
			if obj, isLocal := local(n.X); !isLocal {
				what = fmt.Sprintf("writes to %q declared outside the loop", obj.Name())
				return false
			}
		case *ast.SendStmt:
			what = "sends on a channel"
			return false
		case *ast.CallExpr:
			what = orderSensitiveCall(info, rs, n, local)
			if what != "" {
				return false
			}
		}
		return true
	})
	return what
}

// orderSensitiveCall classifies a call inside a map-range body: output
// (fmt or a Write* method), a builtin delete on an outer map, or a
// pointer-receiver method invoked on outer state (presumed mutating).
func orderSensitiveCall(info *types.Info, rs *ast.RangeStmt, call *ast.CallExpr, local func(ast.Expr) (types.Object, bool)) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "delete" && len(call.Args) == 2 {
			if obj, isLocal := local(call.Args[0]); !isLocal {
				return fmt.Sprintf("deletes from %q declared outside the loop", obj.Name())
			}
		}
	case *ast.SelectorExpr:
		obj := info.Uses[fun.Sel]
		if fn, ok := obj.(*types.Func); ok {
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				return fmt.Sprintf("writes output via fmt.%s", fn.Name())
			}
			if strings.HasPrefix(fn.Name(), "Write") {
				return fmt.Sprintf("writes output via %s", fn.Name())
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
					if obj, isLocal := local(fun.X); !isLocal {
						return fmt.Sprintf("calls pointer-receiver method %q on %q declared outside the loop", fn.Name(), obj.Name())
					}
				}
			}
		}
	}
	return ""
}

// checkSelect flags select statements with two or more communication
// cases: when several are ready the runtime picks pseudo-randomly.
func checkSelect(sel *ast.SelectStmt, report func(token.Pos, string, ...any)) {
	comm := 0
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm >= 2 {
		report(sel.Select, "select with %d communication cases chooses among ready cases pseudo-randomly; restructure to a single case (plus default) or waive with //drstrange:nondet-ok <reason>", comm)
	}
}

// checkGlobalWrite flags a write whose target is rooted at a variable
// of the package's own scope. Package-level variables are only ever
// initialized in their declarations (which are not assignments);
// mutating one from a function body is process-global state that two
// concurrent runs would share, so per-run settings belong in a config
// or on the context instead.
func checkGlobalWrite(info *types.Info, pkg *types.Package, target ast.Expr, report func(token.Pos, string, ...any)) {
	id := rootIdent(target)
	if id == nil {
		return
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || pkg == nil || v.Parent() != pkg.Scope() {
		return
	}
	report(target.Pos(), "write to package-level variable %q is process-global state shared by concurrent runs; carry it in a config or on the context, or waive with //drstrange:nondet-ok <reason>", v.Name())
}

// checkSyncMapRange flags sync.Map.Range calls: iteration order is
// unspecified, exactly like a map range.
func checkSyncMapRange(info *types.Info, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" {
		return
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Name() != "Map" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return
	}
	report(call.Pos(), "sync.Map.Range iterates in unspecified order; collect and sort the keys, or waive with //drstrange:nondet-ok <reason>")
}
