// Command bcachelint is the repo's static-analysis multichecker: eight
// project-specific analyzers (determinism, probesafe, oraclepair,
// statjson, lockdiscipline, atomicdiscipline, splitstream,
// goroutinelife — see internal/lint) that machine-check the invariants
// the paper reproduction's credibility rests on.
//
// It loads the module's packages with one `go list` (lint.Load),
// type-checks each in its widest compilation, and runs the analyzers
// over them dependencies first, so cross-package facts flow in memory:
//
//	bcachelint ./...
//	bcachelint -group ./...      # findings grouped by analyzer
//
// Exit status: 0 clean, 1 findings or usage error, 2 internal failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bcache/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: findings go to stdout, the finding count
// and errors to stderr. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bcachelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	group := fs.Bool("group", false, "group findings by analyzer instead of position order")
	list := fs.Bool("analyzers", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bcachelint [-group] [-analyzers] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the project analyzers over the packages (default ./...).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var diags []lint.Diagnostic
	for _, p := range pkgs {
		d, err := p.RunAnalyzers(lint.All())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		diags = append(diags, d...)
	}
	lint.SortDiagnostics(diags)
	diags = lint.DedupDiagnostics(diags)
	if len(diags) == 0 {
		return 0
	}
	if *group {
		printGrouped(stdout, diags)
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	fmt.Fprintf(stderr, "bcachelint: %d finding(s)\n", len(diags))
	return 1
}

// printGrouped renders findings grouped by analyzer with file:line
// links, the `make lint-fix` triage view.
func printGrouped(w io.Writer, diags []lint.Diagnostic) {
	order := []string{}
	byAnalyzer := map[string][]lint.Diagnostic{}
	for _, d := range diags {
		if _, ok := byAnalyzer[d.Analyzer]; !ok {
			order = append(order, d.Analyzer)
		}
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], d)
	}
	for _, name := range order {
		ds := byAnalyzer[name]
		fmt.Fprintf(w, "== %s (%d) ==\n", name, len(ds))
		for _, d := range ds {
			fmt.Fprintf(w, "  %s:%d:%d  %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
		}
		fmt.Fprintln(w)
	}
}
