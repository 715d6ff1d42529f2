package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockDiscipline enforces the repo's mutex conventions, which the race
// detector can only probe dynamically:
//
//   - a call to a ...Locked function or method must sit in a caller
//     that provably holds the corresponding mutex: an un-released
//     <recv>.<mu>.Lock() earlier in the same body, or the caller is
//     itself a ...Locked method on the same receiver. Exported
//     ...Locked helpers export a requiresHeld fact so callers in other
//     packages are held to the same rule.
//   - a struct field documented `// guarded by <mu>` may only be
//     touched while <mu> is held (same heuristic), except while the
//     value is still function-local (constructors).
//   - values whose type contains a sync.Mutex/RWMutex must not be
//     copied by assignment, dereference, or by-value parameter
//     (copylocks-light; `go vet` backs this up with the full check).
//   - a function that Locks a mutex and then has several return
//     statements must either defer the Unlock or unlock on every path;
//     fewer plain Unlocks than returns with no defer is flagged.
//
// The held heuristic is positional and intentionally modest: an
// intervening Unlock only counts as releasing when its innermost block
// also contains the use site, so the common `if hit { mu.Unlock();
// return }` early-exit between Lock and use does not defeat it, and
// deferred Unlocks never count as intervening.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "check *Locked call sites, `guarded by` fields, lock copies, and unlock coverage on multi-return paths",
	Run:  runLockDiscipline,
}

// guardedByRe extracts the mutex name from a `guarded by mu` field
// comment.
var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

func runLockDiscipline(pass *Pass) error {
	guarded := collectGuardedFields(pass)
	exportLockedFacts(pass)

	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockedCalls(pass, fn)
			checkGuardedAccesses(pass, fn, guarded)
			checkUnlockCoverage(pass, fn)
			checkLockParams(pass, fn)
		}
		checkLockCopies(pass, file)
	}
	return nil
}

// collectGuardedFields maps each struct field carrying a `// guarded by
// <mu>` doc or line comment to the named mutex.
func collectGuardedFields(pass *Pass) map[types.Object]string {
	guarded := map[types.Object]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardedMutex(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

func guardedMutex(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// exportLockedFacts publishes a requiresHeld fact for every ...Locked
// function and method declared here, so callers in packages analyzed
// later see the contract.
func exportLockedFacts(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !strings.HasSuffix(fn.Name.Name, "Locked") {
				continue
			}
			obj, _ := pass.Info.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			recv, mu := "", ""
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				recv = receiverTypeName(sig.Recv().Type())
				mu = mutexFieldName(sig.Recv().Type())
			}
			pass.ExportFact(objectName(recv, fn.Name.Name), FactRequiresHeld, mu)
		}
	}
}

// checkLockedCalls flags calls to ...Locked callees (by name suffix or
// by imported requiresHeld fact) at positions where the corresponding
// mutex is not provably held.
func checkLockedCalls(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeFunc(pass, call)
		if obj == nil {
			return true
		}
		name := obj.Name()
		recv, mu := "", ""
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv = receiverTypeName(sig.Recv().Type())
			mu = mutexFieldName(sig.Recv().Type())
		}
		requires := strings.HasSuffix(name, "Locked")
		if !requires && obj.Pkg() != nil && obj.Pkg().Path() != pass.Pkg.Path() {
			if f, ok := pass.FindImportedFact(obj.Pkg().Path(), FactRequiresHeld, objectName(recv, name)); ok {
				requires, mu = true, f.Detail
			}
		}
		if !requires {
			return true
		}
		base := ""
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && recv != "" {
			base = exprString(sel.X)
		}
		if !holdsLock(pass, fn, call.Pos(), base, mu) {
			target := mu
			if target == "" {
				target = "its mutex"
			} else if base != "" {
				target = base + "." + mu
			}
			pass.Reportf(call.Pos(), "call to %s without holding %s (no prior Lock in this body and caller is not ...Locked)", name, target)
		}
		return true
	})
}

// checkGuardedAccesses flags reads and writes of `guarded by` fields at
// positions where the named mutex is not held. Accesses through a value
// declared inside the same function body are exempt: a struct under
// construction is not yet shared.
func checkGuardedAccesses(pass *Pass, fn *ast.FuncDecl, guarded map[types.Object]string) {
	if len(guarded) == 0 {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[sel.Sel]
		mu, ok := guarded[obj]
		if !ok {
			return true
		}
		base := exprString(sel.X)
		if root := rootIdent(sel.X); root != nil {
			if ro := pass.Info.Uses[root.(*ast.Ident)]; ro != nil &&
				ro.Pos() >= fn.Body.Pos() && ro.Pos() <= fn.Body.End() {
				return true // function-local value, not shared yet
			}
		}
		if !holdsLock(pass, fn, sel.Pos(), base, mu) {
			pass.Reportf(sel.Pos(), "access to %s.%s (guarded by %s) without holding %s.%s", base, sel.Sel.Name, mu, base, mu)
		}
		return true
	})
}

// holdsLock reports whether base's mutex mu is provably held at pos
// inside fn. mu == "" accepts any Lock on base; base == "" accepts any
// Lock at all (package-level ...Locked helpers whose mutex we cannot
// name).
func holdsLock(pass *Pass, fn *ast.FuncDecl, pos token.Pos, base, mu string) bool {
	// A ...Locked caller inherits the obligation instead of
	// re-acquiring: its own receiver stands in for the lock.
	if strings.HasSuffix(fn.Name.Name, "Locked") {
		if base == "" || base == receiverName(fn) {
			return true
		}
	}
	type unlockSite struct {
		pos      token.Pos
		deferred bool
		block    *ast.BlockStmt
	}
	var lastLock token.Pos
	var unlocks []unlockSite
	inspectWithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		op, cb, cm := lockCallParts(call)
		if op == "" {
			return true
		}
		if base != "" && cb != base {
			return true
		}
		if mu != "" && cm != mu {
			return true
		}
		deferred := len(stack) > 0
		if deferred {
			_, deferred = stack[len(stack)-1].(*ast.DeferStmt)
		}
		switch op {
		case "Lock", "RLock":
			if !deferred && call.Pos() > lastLock {
				lastLock = call.Pos()
			}
		case "Unlock", "RUnlock":
			unlocks = append(unlocks, unlockSite{call.Pos(), deferred, innermostBlock(stack)})
		}
		return true
	})
	if lastLock == token.NoPos {
		return false
	}
	for _, u := range unlocks {
		if u.deferred || u.pos < lastLock {
			continue
		}
		// Only an unlock on the straight-line path to pos releases: one
		// inside a nested early-exit block does not reach the use site.
		if u.block == nil || (u.block.Pos() <= pos && pos <= u.block.End()) {
			return false
		}
	}
	return true
}

// checkUnlockCoverage applies the multi-return rule: a body that Locks
// a mutex, never defers the Unlock, and then returns from more places
// than it Unlocks has at least one path that leaks the lock.
func checkUnlockCoverage(pass *Pass, fn *ast.FuncDecl) {
	type tally struct {
		firstLock   token.Pos
		base, mu    string
		deferUnlock bool
	}
	tallies := map[string]*tally{} // keyed by "base.mu"
	inspectWithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures manage their own locks
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, cb, cm := lockCallParts(call)
		if op == "" || !isMutexValue(pass, call) {
			return true
		}
		key := cb + "." + cm
		t := tallies[key]
		if t == nil {
			t = &tally{base: cb, mu: cm}
			tallies[key] = t
		}
		deferred := len(stack) > 0
		if deferred {
			_, deferred = stack[len(stack)-1].(*ast.DeferStmt)
		}
		switch op {
		case "Lock", "RLock":
			if !deferred && t.firstLock == token.NoPos {
				t.firstLock = call.Pos()
			}
		case "Unlock", "RUnlock":
			if deferred {
				t.deferUnlock = true
			}
		}
		return true
	})
	for key, t := range tallies {
		if t.firstLock == token.NoPos || t.deferUnlock {
			continue
		}
		// Count the return statements at which the positional heuristic
		// still considers the lock held: a return preceded by a
		// straight-line Unlock (same block, e.g. the early-exit
		// `mu.Unlock(); return` idiom) does not leak.
		leaking := 0
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			r, ok := n.(*ast.ReturnStmt)
			if !ok || r.Pos() < t.firstLock {
				return true
			}
			if holdsLock(pass, fn, r.Pos(), t.base, t.mu) {
				leaking++
			}
			return true
		})
		if leaking > 0 {
			pass.Reportf(t.firstLock, "%s is locked but %d return path(s) never release it and no Unlock is deferred; unlock before returning or defer %s.Unlock()", key, leaking, key)
		}
	}
}

// checkLockParams flags by-value parameters whose type contains a
// mutex.
func checkLockParams(pass *Pass, fn *ast.FuncDecl) {
	if fn.Type.Params == nil {
		return
	}
	for _, field := range fn.Type.Params.List {
		t := pass.Info.Types[field.Type].Type
		if t == nil {
			continue
		}
		if containsMutex(t, nil) {
			pass.Reportf(field.Pos(), "parameter passes %s by value, copying its mutex; use a pointer", types.TypeString(t, types.RelativeTo(pass.Pkg)))
		}
	}
}

// checkLockCopies flags assignments and declarations that copy a value
// whose type contains a mutex. Composite literals and calls construct
// fresh values, so only dereferences and variable-to-variable copies
// are flagged.
func checkLockCopies(pass *Pass, file *ast.File) {
	checkRHS := func(rhs ast.Expr) {
		switch rhs.(type) {
		case *ast.StarExpr, *ast.Ident, *ast.SelectorExpr:
		default:
			return
		}
		t := pass.Info.Types[rhs].Type
		if t == nil || !containsMutex(t, nil) {
			return
		}
		pass.Reportf(rhs.Pos(), "copies %s, which contains a mutex; lock state must not be duplicated", types.TypeString(t, types.RelativeTo(pass.Pkg)))
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				checkRHS(r)
			}
		case *ast.ValueSpec:
			for _, r := range n.Values {
				checkRHS(r)
			}
		}
		return true
	})
}

// lockCallParts decomposes a call of the shape <base>.<mu>.<op>() or
// <mu>.<op>() where op is Lock/RLock/Unlock/RUnlock, returning the op,
// base expression string, and mutex field name ("" base for a bare
// mutex variable).
func lockCallParts(call *ast.CallExpr) (op, base, mu string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", ""
	}
	op = sel.Sel.Name
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		return op, exprString(x.X), x.Sel.Name
	case *ast.Ident:
		return op, "", x.Name
	default:
		return op, exprString(sel.X), ""
	}
}

// isMutexValue reports whether call's receiver really is a sync mutex
// (guards lockCallParts against unrelated Lock methods, e.g. flock).
func isMutexValue(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.Info.Types[sel.X].Type
	if t == nil {
		return false
	}
	return isMutexType(t)
}

// isMutexType reports whether t (or what it points to) is sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// containsMutex reports whether t embeds a mutex by value anywhere in
// its struct/array composition.
func containsMutex(t types.Type, seen map[types.Type]bool) bool {
	if isMutexType(t) {
		if _, isPtr := t.(*types.Pointer); isPtr {
			return false
		}
		return true
	}
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutex(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutex(u.Elem(), seen)
	}
	return false
}

// mutexFieldName returns the name of the first by-value mutex field of
// the struct underlying t (dereferencing one pointer), or "".
func mutexFieldName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			if _, isPtr := st.Field(i).Type().(*types.Pointer); !isPtr {
				return st.Field(i).Name()
			}
		}
	}
	return ""
}

// receiverTypeName returns the bare type name of a method receiver
// type (dereferencing one pointer), or "".
func receiverTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// receiverName returns fn's receiver identifier ("" for functions and
// anonymous receivers).
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}

// calleeFunc resolves call to the *types.Func it invokes, nil for
// indirect calls and conversions.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := pass.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// rootIdent returns the leftmost identifier of a selector chain, or nil.
func rootIdent(e ast.Expr) ast.Node {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// innermostBlock returns the deepest *ast.BlockStmt in stack, nil if
// none.
func innermostBlock(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			return b
		}
	}
	return nil
}

// isTestFile reports whether file is a _test.go compilation input. The
// concurrency analyzers skip test files: tests touch guarded state
// single-threaded after joins, and their goroutines are bounded by the
// test binary's lifetime.
func isTestFile(pass *Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}
