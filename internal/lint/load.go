package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader, the linter's one driver, shells out to `go list -test
// -deps -export -json`, which compiles every dependency's export data
// into the build cache, then re-type-checks each target package from
// source against that export data with the standard library's gc
// importer. This is the offline substitute for x/tools/go/packages: no
// network, no third-party code, and positions/types identical to what
// the compiler saw.

// listPackage is the subset of `go list -json` output the loader needs.
// The tags restate the go command's field names — this struct mirrors an
// external schema rather than defining one.
type listPackage struct {
	ImportPath string   `json:"ImportPath"`
	Dir        string   `json:"Dir"`
	GoFiles    []string `json:"GoFiles"`
	CgoFiles   []string `json:"CgoFiles"`
	Export     string   `json:"Export"`
	// ForTest is set on test variants ("p [p.test]" has ForTest "p").
	ForTest    string            `json:"ForTest"`
	Standard   bool              `json:"Standard"`
	Module     *listModule       `json:"Module"`
	ImportMap  map[string]string `json:"ImportMap"`
	Incomplete bool              `json:"Incomplete"`
	// DepOnly is set on packages listed only as dependencies of the
	// patterns: -test adds no test variant for them, so their test
	// files are never loaded.
	DepOnly bool       `json:"DepOnly"`
	Error   *listError `json:"Error"`
}

type listModule struct {
	Path      string `json:"Path"`
	GoVersion string `json:"GoVersion"`
}

type listError struct {
	Err string `json:"Err"`
}

// Load lists, parses, and type-checks the packages matching patterns
// (e.g. "./..."), returning one checkedPackage per widest compilation:
// the test variant where test files exist, the plain package otherwise,
// plus external-test packages. dir is the working directory for go list
// ("" = current).
//
// The result preserves `go list -deps`'s depth-first post-order —
// dependencies before dependents — and every returned package shares
// one fact store, so running the analyzers over the slice in order
// gives each package the facts its in-module imports exported.
func Load(dir string, patterns ...string) ([]*checkedPackage, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	// Index export data for the importer and pick the analysis set.
	exports := map[string]string{}
	hasVariant := map[string]bool{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.ForTest != "" && p.ImportPath == p.ForTest+" ["+p.ForTest+".test]" {
			hasVariant[p.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	facts := newFactStore()
	var out []*checkedPackage
	for _, p := range pkgs {
		if p.Standard || p.Module == nil {
			continue // dependency, not analysis target
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // synthesized test main
		}
		if p.ForTest == "" && hasVariant[p.ImportPath] {
			continue // the test variant supersedes the plain compilation
		}
		if undecorated, _, ok := strings.Cut(p.ImportPath, " ["); ok &&
			undecorated != p.ForTest && undecorated != p.ForTest+"_test" {
			// A foreign recompilation — package p rebuilt for another
			// package's test binary (test files closing an import cycle
			// back to p). Same sources as the plain or own-test variant,
			// but without p's test files, so analyzing it would duplicate
			// findings and false-positive the test-presence checks.
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		cp, err := typecheck(fset, p, exports)
		if err != nil {
			return nil, err
		}
		cp.facts = facts
		out = append(out, cp)
	}
	return out, nil
}

// goList runs `go list -test -deps -export -json patterns...` and
// decodes the package stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-test", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(stdout))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// typecheck parses p's files and type-checks them against the export
// data of its dependencies.
func typecheck(fset *token.FileSet, p *listPackage, exports map[string]string) (*checkedPackage, error) {
	var names []string
	for _, f := range append(append([]string{}, p.GoFiles...), p.CgoFiles...) {
		if !filepath.IsAbs(f) {
			f = filepath.Join(p.Dir, f)
		}
		names = append(names, f)
	}
	files, err := parseFiles(fset, names)
	if err != nil {
		return nil, err
	}
	pkg, info, err := checkFiles(fset, p.ImportPath, files, gcImporter(fset, p.ImportMap, exports))
	if err != nil {
		return nil, err
	}
	// A dependency is loaded without its test files, so only a package
	// the patterns name is its widest compilation. Facts are still
	// computed for dependencies.
	return &checkedPackage{
		fset:     fset,
		files:    files,
		pkg:      pkg,
		info:     info,
		pkgPath:  p.ImportPath,
		complete: !p.DepOnly,
	}, nil
}

// parseFiles parses each file with comments (directives live there).
func parseFiles(fset *token.FileSet, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// checkFiles type-checks files as package path using imp for imports.
func checkFiles(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newTypesInfo()
	conf := types.Config{Importer: imp}
	// The import path seen by the type checker must be the plain path:
	// variant decoration is build-system metadata, not a package name.
	base := path
	if i := strings.Index(base, " ["); i >= 0 {
		base = base[:i]
	}
	pkg, err := conf.Check(base, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// gcImporter returns a types.Importer that resolves import paths through
// importMap (test-variant rewrites) and reads gc export data files.
func gcImporter(fset *token.FileSet, importMap, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
