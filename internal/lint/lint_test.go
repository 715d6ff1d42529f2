package lint_test

import (
	"testing"

	"bcache/internal/lint"
	"bcache/internal/lint/analysistest"
)

// The fixture packages live under testdata/src so the repo-wide lint
// run (`go list ./...` skips testdata) never sees their seeded
// violations; each test loads them explicitly.

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, lint.Determinism, "./testdata/src/determinism/...")
}

func TestProbeSafe(t *testing.T) {
	analysistest.Run(t, lint.ProbeSafe, "./testdata/src/probesafe/...")
}

func TestStatJSON(t *testing.T) {
	analysistest.Run(t, lint.StatJSON, "./testdata/src/statjson/...")
}

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, lint.LockDiscipline, "./testdata/src/lockdiscipline/...")
}

func TestAtomicDiscipline(t *testing.T) {
	analysistest.Run(t, lint.AtomicDiscipline, "./testdata/src/atomicdiscipline/...")
}

func TestSplitStream(t *testing.T) {
	analysistest.Run(t, lint.SplitStream, "./testdata/src/splitstream/...")
}

func TestGoroutineLife(t *testing.T) {
	analysistest.Run(t, lint.GoroutineLife, "./testdata/src/goroutinelife/...")
}

// TestDirectives runs two analyzers over one fixture tree: a line that
// needs suppressions from both can carry the clauses in either order,
// and the hygiene findings fire per clause.
func TestDirectives(t *testing.T) {
	analysistest.RunAnalyzers(t,
		[]*lint.Analyzer{lint.SplitStream, lint.GoroutineLife},
		"./testdata/src/directive/...")
}

// TestOraclePair swaps in a fixture manifest: the good package keeps
// both twins and its differential test, the bad package has lost its
// oracle, one declared test, and the surviving test's oracle reference,
// and the notests package keeps both twins but has no test file at all.
// The user package only imports good.
func TestOraclePair(t *testing.T) {
	defer func(old []lint.Pair) { lint.Manifest = old }(lint.Manifest)
	lint.Manifest = []lint.Pair{
		{
			Name:        "good-pair",
			Why:         "fixture",
			Pkg:         "testdata/src/oraclepair/good",
			Fast:        "Fast",
			Oracle:      "Oracle",
			TestPackage: "testdata/src/oraclepair/good",
			Tests:       []string{"TestFastMatchesOracle"},
		},
		{
			Name:        "bad-pair",
			Why:         "fixture",
			Pkg:         "testdata/src/oraclepair/bad",
			Fast:        "Fast",
			Oracle:      "Oracle",
			TestPackage: "testdata/src/oraclepair/bad",
			Tests:       []string{"TestGone", "TestIgnoresOracle"},
		},
		{
			Name:        "notests-pair",
			Why:         "fixture",
			Pkg:         "testdata/src/oraclepair/notests",
			Fast:        "Fast",
			Oracle:      "Oracle",
			TestPackage: "testdata/src/oraclepair/notests",
			Tests:       []string{"TestFastMatchesOracle"},
		},
	}
	analysistest.Run(t, lint.OraclePair, "./testdata/src/oraclepair/...")
	// Loading user alone loads good as a dependency, without its test
	// file: a pass that cannot see the tests must not report them gone.
	analysistest.Run(t, lint.OraclePair, "./testdata/src/oraclepair/user")
}

// TestRepoTreeClean asserts the zero-findings invariant the ci target
// depends on: every pre-existing finding in the tree is fixed or
// carries a justified //bcachelint:allow. New violations fail here as
// well as in `make lint`.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("re-type-checks the whole module; skipped in -short")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := pkg.RunAnalyzers(lint.All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.PkgPath(), err)
		}
		all = append(all, diags...)
	}
	lint.SortDiagnostics(all)
	for _, d := range lint.DedupDiagnostics(all) {
		t.Errorf("finding: %s", d.String())
	}
}
