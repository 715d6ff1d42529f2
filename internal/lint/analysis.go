// Package lint is the project's static-analysis suite: eight analyzers
// that machine-check invariants the paper's results depend on but that
// the compiler cannot see — bit-reproducible simulation (determinism),
// zero-alloc nil-guarded probe emission (probesafe), fast-kernel/oracle
// twinning (oraclepair), stable report schemas (statjson), and the
// concurrency disciplines the differential-oracle methodology rests on:
// mutex contracts (lockdiscipline), all-or-nothing atomics
// (atomicdiscipline), per-shard rng streams and capture hygiene in
// goroutine bodies (splitstream), and provable goroutine lifecycles
// (goroutinelife). The concurrency analyzers share cross-package facts
// (facts.go) through the one store a Load hands its packages, so
// exported ...Locked helpers, atomic fields, concurrent runners, and
// self-stopping functions are checked at call sites in other packages
// too.
//
// The types here deliberately mirror golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers port mechanically to
// the upstream framework; the build environment is offline, so the
// scaffolding — package loading (load.go), the one driver every caller
// shares, and the testdata harness (analysistest/) — is reimplemented
// on the standard library alone.
//
// Findings are suppressed line-by-line with a directive comment:
//
//	//bcachelint:allow <analyzer>(<reason>)
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory — an empty one is itself a finding — and a directive
// that suppresses nothing is reported as stale, so the set of
// suppressions can never silently rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors
// x/tools/go/analysis.Analyzer: Run inspects a single type-checked
// package via the Pass and reports findings through pass.Reportf.
type Analyzer struct {
	// Name is the analyzer identifier used in output and in
	// //bcachelint:allow directives.
	Name string
	// Doc is the one-paragraph description shown by `bcachelint -help`.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// All is the suite, in output order: the four PR 5 analyzers followed
// by the four concurrency-invariant analyzers (PR 10).
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, ProbeSafe, OraclePair, StatJSON,
		LockDiscipline, AtomicDiscipline, SplitStream, GoroutineLife,
	}
}

// A Pass is one (analyzer, package) unit of work: the parsed files,
// the type information, and the sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path as the build system reported it; for a
	// test variant it carries the " [pkg.test]" suffix.
	PkgPath string
	// Complete marks the widest compilation of this package: the test
	// variant when test files exist, the plain package otherwise. A
	// pass is incomplete only when its package was loaded as a
	// dependency of the patterns, without its test files.
	// Whole-package requirements (oraclepair's symbol-existence and
	// test-presence checks) run only on complete passes, so a pass that
	// cannot see a package's _test.go files never reports their symbols
	// gone.
	Complete bool

	diags *[]Diagnostic
	// facts is the run-wide cross-package fact store (see facts.go);
	// nil only in tests that construct a bare Pass.
	facts *factStore
}

// BasePkgPath is PkgPath without any test-variant decoration:
// "p [p.test]" and the external-test "p_test" both normalize to "p".
func (p *Pass) BasePkgPath() string { return basePkgPath(p.PkgPath) }

// basePkgPath strips build-system decoration from an import path:
// "p [p.test]" and "p_test" both normalize to "p".
func basePkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return strings.TrimSuffix(path, "_test")
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(p.Fset.Position(pos), format, args...)
}

func (p *Pass) report(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// DirectiveAnalyzer names the pseudo-analyzer that owns directive
// hygiene findings (missing reasons, stale suppressions). It is not
// suppressible — an //bcachelint:allow directive cannot excuse itself.
const DirectiveAnalyzer = "directive"

// directiveRe matches the `//bcachelint:allow` verb; the clauses that
// follow are parsed by directiveClauseRe. Splitting the two lets one
// comment carry several suppressions.
var directiveRe = regexp.MustCompile(`^//bcachelint:allow\s+`)

// directiveClauseRe captures one `name(reason)` clause at the front of
// the remaining directive text. The reason is one parenthesis-free
// string and may be empty at parse time; emptiness is reported as a
// finding. Clauses repeat, whitespace-separated and in any order —
// `//bcachelint:allow splitstream(r1) goroutinelife(r2)` suppresses
// both analyzers on the line — and text after the last clause is
// ignored, so a directive can still share a comment with other
// annotations.
var directiveClauseRe = regexp.MustCompile(`^\s*([a-zA-Z]+)\(([^()]*)\)`)

// directive is one parsed //bcachelint:allow comment.
type directive struct {
	pos      token.Position // of the comment itself
	analyzer string
	reason   string
	used     bool
}

// parseDirectives extracts every //bcachelint:allow directive from the
// files' comments. Malformed bcachelint comments (wrong verb, missing
// parentheses) are reported immediately so typos fail loudly instead of
// silently not suppressing.
func parseDirectives(fset *token.FileSet, files []*ast.File, sink *[]Diagnostic) []*directive {
	var ds []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//bcachelint:") {
					continue
				}
				pos := fset.Position(c.Pos())
				verb := directiveRe.FindString(c.Text)
				if verb == "" {
					*sink = append(*sink, Diagnostic{Pos: pos, Analyzer: DirectiveAnalyzer,
						Message: fmt.Sprintf("malformed bcachelint directive %q; want //bcachelint:allow analyzer(reason)", c.Text)})
					continue
				}
				rest, parsed := c.Text[len(verb):], 0
				for {
					m := directiveClauseRe.FindStringSubmatch(rest)
					if m == nil {
						break
					}
					ds = append(ds, &directive{pos: pos, analyzer: m[1], reason: strings.TrimSpace(m[2])})
					rest = rest[len(m[0]):]
					parsed++
				}
				if parsed == 0 {
					*sink = append(*sink, Diagnostic{Pos: pos, Analyzer: DirectiveAnalyzer,
						Message: fmt.Sprintf("malformed bcachelint directive %q; want //bcachelint:allow analyzer(reason)", c.Text)})
				}
			}
		}
	}
	return ds
}

// applyDirectives filters diags through the allow directives: a
// diagnostic is dropped when a directive for its analyzer sits on the
// same line or the line directly above (same file). Suppression is
// line-scoped by construction — a directive can never blanket a file.
// It then appends directive-hygiene findings: every suppression must
// carry a reason, and every directive must suppress something.
func applyDirectives(diags []Diagnostic, dirs []*directive) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		if d.Analyzer != DirectiveAnalyzer {
			for _, dir := range dirs {
				if dir.analyzer == d.Analyzer && dir.pos.Filename == d.Pos.Filename &&
					(dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1) {
					dir.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		if dir.used && dir.reason == "" {
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: DirectiveAnalyzer,
				Message: fmt.Sprintf("bcachelint:allow %s() has no reason; every suppression must say why", dir.analyzer)})
		}
		if !dir.used {
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: DirectiveAnalyzer,
				Message: fmt.Sprintf("stale bcachelint:allow %s directive suppresses nothing on this or the next line", dir.analyzer)})
		}
	}
	return out
}

// checkedPackage is one type-checked compilation ready for analysis.
type checkedPackage struct {
	fset     *token.FileSet
	files    []*ast.File
	pkg      *types.Package
	info     *types.Info
	pkgPath  string
	complete bool
	// facts is shared by every checkedPackage of one Load:
	// dependency-order analysis fills it before dependents read.
	facts *factStore
}

// PkgPath returns the package's import path as the build system
// reported it (test variants carry the " [pkg.test]" decoration).
func (cp *checkedPackage) PkgPath() string { return cp.pkgPath }

// FileNames returns the source file paths of the compilation, in
// compile order (the analysistest harness scans them for // want
// comments).
func (cp *checkedPackage) FileNames() []string {
	names := make([]string, 0, len(cp.files))
	for _, f := range cp.files {
		names = append(names, cp.fset.Position(f.Pos()).Filename)
	}
	return names
}

// RunAnalyzers runs every analyzer over the package and returns the
// findings after directive filtering, sorted by position.
func (cp *checkedPackage) RunAnalyzers(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     cp.fset,
			Files:    cp.files,
			Pkg:      cp.pkg,
			Info:     cp.info,
			PkgPath:  cp.pkgPath,
			Complete: cp.complete,
			diags:    &diags,
			facts:    cp.facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, cp.pkgPath, err)
		}
	}
	dirs := parseDirectives(cp.fset, cp.files, &diags)
	diags = applyDirectives(diags, dirs)
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// DedupDiagnostics drops exact repeats (same position, analyzer,
// message), which arise when a file is analyzed in both the plain and
// the test-variant compilation of its package. diags must be sorted.
func DedupDiagnostics(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// newTypesInfo allocates the full types.Info map set the analyzers use.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// inspectWithStack walks n in source order invoking fn with the node and
// the stack of its ancestors (outermost first, not including n). fn
// returning false prunes the subtree.
func inspectWithStack(n ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(node, stack)
		if keep {
			stack = append(stack, node)
		}
		return keep
	})
}
