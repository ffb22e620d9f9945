package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"

	"drstrange/internal/lint/analysis"
)

// Hookcheck enforces the no-reentry contract documented for the two
// completion hooks (doc.go, "The serve path's memory model"): the
// OnInjectionComplete and OnRNGRound callbacks fire synchronously from
// inside the simulator's own advance — OnRNGRound inside
// advanceRNGMode with the controller's round state mid-update,
// OnInjectionComplete inside the System's completion sweep — so a hook
// that steps the system, injects a request, or re-enters the
// controller's request path corrupts the very state that is currently
// being advanced.
var Hookcheck = &analysis.Analyzer{
	Name: "hookcheck",
	Doc: `enforce the no-reentry contract of OnRNGRound / OnInjectionComplete

A function installed as an OnRNGRound or OnInjectionComplete hook —
through a composite-literal field, a field assignment, or a
registration call (System.OnInjectionComplete, Controller.OnRNGRound)
— must not, transitively through static calls, reach:

  - System.Step, System.StepTo, or System.InjectRNG
  - the controller's request path: Controller.Tick, SubmitRead,
    SubmitWrite, SubmitRNG, Recycle, or OnRNGRound
  - a direct write to a Controller's fields (its queues and mode state)

Controller.SetEntropySuspect is the one sanctioned reentry: the health
monitor's trip is designed to quarantine the shard synchronously from
inside a generation round, and the method is written to be safe at
that call site. The walk follows static calls only — a hook hidden
behind a function-typed field or interface value is not followed — and
function-typed variables are resolved through their := initializer
when it is a function literal.`,
	Run: runHookcheck,
}

// hookNames are the struct-field / registration-method names that
// install a no-reentry hook.
var hookNames = map[string]bool{
	"OnRNGRound":          true,
	"OnInjectionComplete": true,
}

// forbiddenSystemMethods re-enter the simulator's time advance or
// injection port.
var forbiddenSystemMethods = map[string]bool{
	"Step":      true,
	"StepTo":    true,
	"InjectRNG": true,
}

// forbiddenControllerMethods re-enter the controller's request path or
// rebind its hooks mid-fire.
var forbiddenControllerMethods = map[string]bool{
	"Tick":        true,
	"SubmitRead":  true,
	"SubmitWrite": true,
	"SubmitRNG":   true,
	"Recycle":     true,
	"OnRNGRound":  true,
}

// sanctionedControllerMethods are controller entry points the hook
// contract explicitly permits; the walk neither flags nor descends
// into them.
var sanctionedControllerMethods = map[string]bool{
	"SetEntropySuspect": true,
}

func runHookcheck(pass *analysis.Pass) (any, error) {
	idx := funcIndexFor(pass.Prog)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && hookNames[key.Name] {
						checkHookExpr(pass, idx, key.Name, kv.Value, kv.Pos())
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !hookNames[sel.Sel.Name] {
						continue
					}
					checkHookExpr(pass, idx, sel.Sel.Name, n.Rhs[i], n.Pos())
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if hookNames[sel.Sel.Name] && len(n.Args) == 1 {
					if _, isMethod := pass.Pkg.Info.Uses[sel.Sel].(*types.Func); isMethod {
						checkHookExpr(pass, idx, sel.Sel.Name, n.Args[0], n.Pos())
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkHookExpr resolves the expression installed as a hook to a
// function body and walks it.
func checkHookExpr(pass *analysis.Pass, idx *funcIndex, hook string, expr ast.Expr, site token.Pos) {
	w := &hookWalker{pass: pass, idx: idx, hook: hook, site: site, visited: map[*types.Func]bool{}}
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		w.walkBody(pass.Pkg, e.Body, nil)
	case *ast.Ident:
		if e.Name == "nil" {
			return
		}
		switch obj := pass.Pkg.Info.Uses[e].(type) {
		case *types.Func:
			w.walkFunc(obj, nil)
		case *types.Var:
			// A local function-typed variable: resolve through its
			// declaration-site function literal, the way serve.go's
			// onDone closure is installed.
			if lit := funcLitFor(pass.Pkg, obj); lit != nil {
				w.walkBody(pass.Pkg, lit.Body, nil)
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Pkg.Info.Uses[e.Sel].(*types.Func); ok {
			w.walkFunc(fn, nil)
		}
	}
}

// funcLitFor finds the function literal a local variable was defined
// with (v := func(...){...} or var v = func(...){...}), scanning the
// variable's own file.
func funcLitFor(pkg *analysis.Package, v *types.Var) *ast.FuncLit {
	var lit *ast.FuncLit
	for _, f := range pkg.Files {
		if v.Pos() < f.Pos() || v.Pos() > f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					obj := pkg.Info.Defs[id]
					if obj == nil {
						obj = pkg.Info.Uses[id]
					}
					if obj != v {
						continue
					}
					if fl, ok := n.Rhs[i].(*ast.FuncLit); ok {
						lit = fl
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if pkg.Info.Defs[name] != v || i >= len(n.Values) {
						continue
					}
					if fl, ok := n.Values[i].(*ast.FuncLit); ok {
						lit = fl
					}
				}
			}
			return true
		})
	}
	return lit
}

// hookWalker performs the transitive static-call walk from a hook body.
type hookWalker struct {
	pass    *analysis.Pass
	idx     *funcIndex
	hook    string
	site    token.Pos
	visited map[*types.Func]bool
}

// walkFunc descends into a named function or method, recording the
// call chain for the diagnostic.
func (w *hookWalker) walkFunc(fn *types.Func, chain []string) {
	if w.visited[fn] {
		return
	}
	w.visited[fn] = true
	entry, ok := w.idx.decl[fn]
	if !ok {
		return // outside the loaded module (std etc.): not followed
	}
	w.walkBody(entry.pkg, entry.decl.Body, append(chain, fn.Name()))
}

// walkBody scans one function body for forbidden reentries and queues
// its static callees.
func (w *hookWalker) walkBody(pkg *analysis.Package, body *ast.BlockStmt, chain []string) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pkg.Info, n)
			if fn == nil {
				return true
			}
			if kind, bad := forbiddenCallee(fn); bad {
				w.report(chain, kind)
				return true
			}
			if sanctioned(fn) {
				return true
			}
			w.walkFunc(fn, chain)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if w.controllerFieldWrite(pkg, lhs) {
					w.report(chain, "writes a Controller field directly")
				}
			}
		case *ast.IncDecStmt:
			if w.controllerFieldWrite(pkg, n.X) {
				w.report(chain, "writes a Controller field directly")
			}
		}
		return true
	})
}

// controllerFieldWrite reports whether an assignment target is a field
// of a memctrl Controller.
func (w *hookWalker) controllerFieldWrite(pkg *analysis.Package, lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Controller" && pkgPathSuffix(named.Obj().Pkg(), "internal/memctrl")
}

// forbiddenCallee classifies a callee against the no-reentry contract.
func forbiddenCallee(fn *types.Func) (string, bool) {
	named := recvNamed(fn)
	if named == nil {
		return "", false
	}
	switch {
	case named.Obj().Name() == "System" && pkgPathSuffix(named.Obj().Pkg(), "internal/sim") &&
		forbiddenSystemMethods[fn.Name()]:
		return "reaches System." + fn.Name(), true
	case named.Obj().Name() == "Controller" && pkgPathSuffix(named.Obj().Pkg(), "internal/memctrl") &&
		forbiddenControllerMethods[fn.Name()]:
		return "re-enters Controller." + fn.Name(), true
	}
	return "", false
}

// sanctioned reports whether the hook contract explicitly permits a
// callee, stopping the walk there.
func sanctioned(fn *types.Func) bool {
	named := recvNamed(fn)
	return named != nil && named.Obj().Name() == "Controller" &&
		pkgPathSuffix(named.Obj().Pkg(), "internal/memctrl") &&
		sanctionedControllerMethods[fn.Name()]
}

// report emits the diagnostic at the hook's installation site, with
// the call chain that reaches the violation.
func (w *hookWalker) report(chain []string, kind string) {
	via := ""
	if len(chain) > 0 {
		via = " via " + strings.Join(chain, " -> ")
	}
	w.pass.Reportf(w.site, "hook %s must not re-enter the simulator: %s%s (no-reentry contract, see doc.go)", w.hook, kind, via)
}

// funcIndex maps every *types.Func declared in the loaded module to
// its declaration, for the transitive walk.
type funcIndex struct {
	decl map[*types.Func]funcEntry
}

type funcEntry struct {
	decl *ast.FuncDecl
	pkg  *analysis.Package
}

var (
	funcIndexMu    sync.Mutex
	funcIndexCache = map[*analysis.Program]*funcIndex{}
)

// funcIndexFor builds (once per Program) the whole-module function
// index.
func funcIndexFor(prog *analysis.Program) *funcIndex {
	funcIndexMu.Lock()
	defer funcIndexMu.Unlock()
	if idx, ok := funcIndexCache[prog]; ok {
		return idx
	}
	idx := &funcIndex{decl: map[*types.Func]funcEntry{}}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx.decl[fn] = funcEntry{decl: fd, pkg: pkg}
				}
			}
		}
	}
	funcIndexCache[prog] = idx
	return idx
}
