package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ProbeSafe enforces the observability layer's hot-path contract
// (internal/cache/probe.go, internal/obs/alloc_test.go): probes are nil
// by default and every emission must be guarded, and an emission must
// never allocate — the alloc benchmarks pin probe overhead at zero
// allocations per access, which any closure or composite-literal
// argument would break.
//
// At every call of a cache.Probe interface method:
//   - the call must be enclosed in an if whose condition checks the
//     same receiver expression against nil (`if c.probe != nil { ... }`,
//     possibly inside a larger && chain)
//   - no argument may be a function literal or (address of a) composite
//     literal, which allocate per emission
//
// Taking a Probe method as a method value (`f := p.ObserveAccess`) is
// also flagged: a method value is a closure allocation.
var ProbeSafe = &Analyzer{
	Name: "probesafe",
	Doc:  "flag unguarded or allocating cache.Probe emissions on the hot path",
	Run:  runProbeSafe,
}

// probeInterfacePkg/Name identify the interface whose call sites are
// checked. Fixture packages substitute their own (see probeIfaceFor).
const (
	probeInterfacePkgSuffix = "internal/cache"
	probeInterfaceName      = "Probe"
)

// isProbeInterface reports whether t (after pointer stripping) is the
// cache.Probe interface type, or a fixture stand-in: any interface
// named Probe declared in a package whose path ends in internal/cache
// or in a testdata fixture package.
func isProbeInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return false
	}
	obj := named.Obj()
	if obj.Name() != probeInterfaceName || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return hasSuffixPath(path, probeInterfacePkgSuffix) || containsTestdata(path)
}

func runProbeSafe(pass *Pass) error {
	for _, file := range pass.Files {
		// The hot-path contract binds production code; tests and
		// benchmarks drive probes directly on values they know are
		// non-nil, and a test-side allocation is benign.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		inspectWithStack(file, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only method selections on a Probe-typed receiver matter.
			selInfo, ok := pass.Info.Selections[sel]
			if !ok || selInfo.Kind() != types.MethodVal {
				return true
			}
			if !isProbeInterface(pass.Info.TypeOf(sel.X)) {
				return true
			}
			call, isCall := enclosingCall(stack, sel)
			if !isCall {
				pass.Reportf(sel.Pos(), "method value %s.%s allocates a closure; call the probe directly under a nil guard", exprString(sel.X), sel.Sel.Name)
				return true
			}
			if !nilGuarded(pass, stack, sel.X) {
				pass.Reportf(call.Pos(), "probe emission %s.%s is not enclosed in an `if %s != nil` guard; probes are nil by default", exprString(sel.X), sel.Sel.Name, exprString(sel.X))
			}
			for _, arg := range call.Args {
				if bad := allocatingArg(arg); bad != "" {
					pass.Reportf(arg.Pos(), "probe emission argument is a %s, which allocates per event; hoist it out of the hot path", bad)
				}
			}
			return true
		})
	}
	return nil
}

// enclosingCall reports whether sel is the Fun of a call expression in
// stack (i.e. this is a method call, not a method value).
func enclosingCall(stack []ast.Node, sel *ast.SelectorExpr) (*ast.CallExpr, bool) {
	if len(stack) == 0 {
		return nil, false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok || call.Fun != sel {
		return nil, false
	}
	return call, true
}

// nilGuarded reports whether some enclosing if-statement's condition
// contains `recv != nil` (or `nil != recv`) for the same receiver
// expression, comparing by printed source form.
func nilGuarded(pass *Pass, stack []ast.Node, recv ast.Expr) bool {
	want := exprString(recv)
	for i := len(stack) - 1; i >= 0; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		// The call must be in the body for the guard to cover it (a
		// call in the else branch is the un-guarded path).
		if !nodeWithin(ifStmt.Body, recv) {
			continue
		}
		if condChecksNotNil(ifStmt.Cond, want) {
			return true
		}
	}
	return false
}

// nodeWithin reports whether n's position falls inside outer.
func nodeWithin(outer ast.Node, n ast.Node) bool {
	return outer.Pos() <= n.Pos() && n.End() <= outer.End()
}

// condChecksNotNil walks cond's && chain for a `want != nil` check.
func condChecksNotNil(cond ast.Expr, want string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condChecksNotNil(c.X, want)
	case *ast.BinaryExpr:
		switch c.Op.String() {
		case "&&":
			return condChecksNotNil(c.X, want) || condChecksNotNil(c.Y, want)
		case "!=":
			return (exprString(c.X) == want && isNilIdent(c.Y)) ||
				(exprString(c.Y) == want && isNilIdent(c.X))
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// allocatingArg classifies argument expressions that allocate per call.
func allocatingArg(arg ast.Expr) string {
	switch a := arg.(type) {
	case *ast.FuncLit:
		return "function literal"
	case *ast.CompositeLit:
		return "composite literal"
	case *ast.UnaryExpr:
		if a.Op.String() == "&" {
			if _, ok := a.X.(*ast.CompositeLit); ok {
				return "pointer to composite literal"
			}
		}
	}
	return ""
}
