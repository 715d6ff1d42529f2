package lint

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// OraclePair enforces fast-kernel/oracle twinning: every optimized
// engine in the repo (SWAR core.BCache, the chunk replay kernels, the
// Mattson profiler, the hash victim buffer) is only trusted
// because a slow reference implementation and a differential test pin
// its behaviour. The twins are declared in oraclepairs.json; for each
// declared pair the analyzer requires that
//
//   - the fast and oracle symbols still exist in their declaring
//     package (a deleted oracle fails lint, not review),
//   - every declared differential/fuzz test function still exists, and
//   - each test still references both halves of the pair (or the
//     manifest's explicit testRefs seam symbols).
//
// Symbols are "Name" for package-level objects or "Type.member" for
// methods and fields; oracleInTest marks oracles that live in _test.go
// files. Existence and test-presence checks run only on Complete
// passes, so a package loaded as a dependency, without its test files,
// never false-positives on test-file symbols. A package the patterns
// name is always analyzed in its widest compilation, so a package whose
// test files were deleted wholesale is still checked, and its declared
// tests are reported gone.
var OraclePair = &Analyzer{
	Name: "oraclepair",
	Doc:  "every fast/oracle twin in the manifest keeps both symbols and a live differential test referencing them",
	Run:  runOraclePair,
}

//go:embed oraclepairs.json
var oraclePairsJSON []byte

// A Pair is one fast/oracle twin declaration from the manifest.
type Pair struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Pkg declares where Fast and Oracle live.
	Pkg    string `json:"pkg"`
	Fast   string `json:"fast"`
	Oracle string `json:"oracle"`
	// OracleInTest marks an oracle declared in a _test.go file of Pkg.
	OracleInTest bool `json:"oracleInTest"`
	// TestPackage and Tests name the differential/fuzz tests that pin
	// the pair ("p" for in-package tests, "p_test" for external).
	TestPackage string   `json:"testPackage"`
	Tests       []string `json:"tests"`
	// TestRefs overrides the symbols each test must reference (default:
	// Fast and Oracle). Used when the twinning seam is a constructor
	// flag or field rather than the engine symbols themselves.
	TestRefs []string `json:"testRefs"`
}

// Manifest is the active pair set. Tests substitute fixture manifests;
// the default is the embedded oraclepairs.json.
var Manifest = mustParseManifest(oraclePairsJSON)

func mustParseManifest(data []byte) []Pair {
	var pairs []Pair
	if err := json.Unmarshal(data, &pairs); err != nil {
		panic(fmt.Sprintf("lint: parsing embedded oraclepairs.json: %v", err))
	}
	return pairs
}

func runOraclePair(pass *Pass) error {
	if !pass.Complete {
		return nil
	}
	base := pass.BasePkgPath()
	// In a test-variant or plain pass the "test home" is the base path;
	// in an external-test pass it is base+"_test".
	undecorated := pass.PkgPath
	if i := strings.Index(undecorated, " ["); i >= 0 {
		undecorated = undecorated[:i]
	}
	isXTest := strings.HasSuffix(undecorated, "_test")
	testHome := base
	if isXTest {
		testHome = base + "_test"
	}
	for i := range Manifest {
		p := &Manifest[i]
		declaring := !isXTest && pathMatches(base, p.Pkg)
		inTestPkg := pathMatches(testHome, p.TestPackage)
		if declaring || inTestPkg {
			checkPair(pass, p, declaring, inTestPkg)
		}
	}
	return nil
}

// pathMatches compares a pass package path against a manifest path.
// Fixture packages under testdata/src may declare manifest paths by
// suffix so the fixtures do not hard-code the module root.
func pathMatches(path, manifest string) bool {
	return path == manifest || (containsTestdata(path) && hasSuffixPath(path, manifest))
}

// checkPair runs the symbol-existence check (when pass is the declaring
// package) and the test-presence/reference checks (when pass is the
// test package).
func checkPair(pass *Pass, p *Pair, declaring, inTestPkg bool) {
	pos := pass.Files[0].Package
	if declaring {
		for _, sym := range []struct {
			name   string
			inTest bool
			role   string
		}{{p.Fast, false, "fast"}, {p.Oracle, p.OracleInTest, "oracle"}} {
			if lookupSymbol(pass.Pkg, sym.name) == nil {
				pass.Reportf(pos, "oracle pair %q: %s symbol %s.%s is gone; the pair's twin and its manifest entry must move together (%s)",
					p.Name, sym.role, p.Pkg, sym.name, p.Why)
			}
		}
	}
	if !inTestPkg {
		return
	}
	refs := p.TestRefs
	if len(refs) == 0 {
		refs = []string{symbolBaseName(p.Fast), symbolBaseName(p.Oracle)}
	}
	for _, testName := range p.Tests {
		fn := findFuncDecl(pass, testName)
		if fn == nil {
			pass.Reportf(pos, "oracle pair %q: differential test %s.%s is gone; deleting the oracle's test fails lint, not review (%s)",
				p.Name, p.TestPackage, testName, p.Why)
			continue
		}
		for _, ref := range refs {
			if !funcReferences(pass, fn, p.Pkg, ref) {
				pass.Reportf(fn.Pos(), "oracle pair %q: test %s no longer references %s; it must drive both twins (%s)",
					p.Name, testName, ref, p.Why)
			}
		}
	}
}

// lookupSymbol resolves "Name" in pkg's scope, or "Type.member" to a
// method or field of a package-level named type. Unexported names are
// visible — the manifest speaks about this repo's own packages.
func lookupSymbol(pkg *types.Package, sym string) types.Object {
	typeName, member, isMember := strings.Cut(sym, ".")
	obj := pkg.Scope().Lookup(typeName)
	if obj == nil || !isMember {
		return obj
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == member {
			return m
		}
	}
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == member {
				return f
			}
		}
	}
	return nil
}

func symbolBaseName(sym string) string {
	if _, member, ok := strings.Cut(sym, "."); ok {
		return member
	}
	return sym
}

// findFuncDecl finds a top-level function named name in the pass files.
func findFuncDecl(pass *Pass, name string) *ast.FuncDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == name {
				return fn
			}
		}
	}
	return nil
}

// funcReferences reports whether fn's body mentions the named symbol
// from pkgPath: either an identifier resolving to an object with that
// name in that package, or a value whose type mentions the qualified
// name (covering twins reached through constructors: `c, _ := New(...)`
// references Cache via c's type *victim.Cache).
func funcReferences(pass *Pass, fn *ast.FuncDecl, pkgPath, name string) bool {
	if fn.Body == nil {
		return false
	}
	found := false
	qualified := pkgPath + "." + name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj == nil {
			return true
		}
		if obj.Name() == name && obj.Pkg() != nil && pathMatches(obj.Pkg().Path(), pkgPath) {
			found = true
			return false
		}
		if t := obj.Type(); t != nil && typeMentions(t, qualified, pkgPath, name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// typeMentions reports whether t's printed form contains the qualified
// symbol name (fixture packages match by path suffix).
func typeMentions(t types.Type, qualified, pkgPath, name string) bool {
	s := t.String()
	if strings.Contains(s, qualified) {
		return true
	}
	// Suffix-matched fixture packages: accept any "<path>.<name>" where
	// the path ends with the manifest's pkg path.
	i := strings.Index(s, "."+name)
	for i >= 0 {
		head := s[:i]
		j := len(head)
		for j > 0 && (isPathChar(head[j-1])) {
			j--
		}
		if hasSuffixPath(head[j:], pkgPath) {
			return true
		}
		next := strings.Index(s[i+1:], "."+name)
		if next < 0 {
			break
		}
		i += 1 + next
	}
	return false
}

func isPathChar(c byte) bool {
	return c == '/' || c == '.' || c == '-' || c == '_' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}
