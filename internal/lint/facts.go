package lint

import (
	"fmt"
	"sort"
)

// Cross-package facts.
//
// The concurrency analyzers need to see across package boundaries: a
// caller of dist's exported ...Locked helper must hold the right mutex
// even though the helper's body lives in another compilation, and a
// closure handed to an exported goroutine-spawning runner must obey the
// split-stream rules even though the `go` statement is elsewhere. The
// x/tools framework solves this with typed facts; this file is the
// stdlib reimplementation: a Fact is one (object, kind, detail) triple
// exported by a package's analyzers and visible to every package that
// imports it.
//
// Facts flow dependency-first through one in-memory factStore: `go
// list -deps` emits dependencies before dependents, Load preserves that
// order, and every checkedPackage of one Load shares the store, so by
// the time a package's analyzers run, its in-module dependencies' facts
// are already there. Nothing is written to disk.

// Fact kinds exported by the concurrency analyzers.
const (
	// FactRequiresHeld marks a ...Locked function or method; Detail is
	// the mutex field of the receiver the caller must hold ("" when the
	// receiver declares none).
	FactRequiresHeld = "requiresHeld"
	// FactAtomicField marks a struct field accessed through sync/atomic
	// in its defining package; Detail is the operand width ("32"/"64").
	FactAtomicField = "atomicField"
	// FactConcurrentRunner marks a function that launches one of its
	// func-typed parameters on a goroutine (directly or through a
	// same-package invoker); Detail is the decimal parameter index.
	FactConcurrentRunner = "concurrentRunner"
	// FactStopEdge marks a function whose body carries its own join or
	// stop edge (channel receive, context check, WaitGroup.Done), so a
	// bare `go pkg.F(...)` of it is not a leak.
	FactStopEdge = "stopEdge"
)

// A Fact is one exported statement about a package-level object.
// Object is "Func" for functions and "Type.Member" for methods and
// fields; Kind is one of the Fact* constants; Detail is kind-specific.
type Fact struct {
	Object string
	Kind   string
	Detail string
}

// factStore accumulates facts per base (undecorated) package path for
// one analysis run. It is confined to the analysis goroutine; no lock.
type factStore struct {
	byPkg map[string]map[Fact]bool
}

func newFactStore() *factStore {
	return &factStore{byPkg: map[string]map[Fact]bool{}}
}

// add records one fact for pkg (base path). Duplicate adds — the plain
// and test-variant compilations analyze the same files — collapse.
func (s *factStore) add(pkg string, f Fact) {
	m := s.byPkg[pkg]
	if m == nil {
		m = map[Fact]bool{}
		s.byPkg[pkg] = m
	}
	m[f] = true
}

// facts returns pkg's facts sorted by (Object, Kind, Detail).
func (s *factStore) facts(pkg string) []Fact {
	m := s.byPkg[pkg]
	if len(m) == 0 {
		return nil
	}
	out := make([]Fact, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
	return out
}

// ExportFact records a fact about a package-level object of the current
// package, visible to every later-analyzed package that imports it.
func (p *Pass) ExportFact(object, kind, detail string) {
	if p.facts == nil {
		return
	}
	p.facts.add(p.BasePkgPath(), Fact{Object: object, Kind: kind, Detail: detail})
}

// ImportedFacts returns the facts of kind exported by pkgPath (a base
// import path), in sorted order. It answers from the shared store, so
// it sees the current package's own facts too — callers that want only
// foreign facts filter by package themselves.
func (p *Pass) ImportedFacts(pkgPath, kind string) []Fact {
	if p.facts == nil {
		return nil
	}
	var out []Fact
	for _, f := range p.facts.facts(pkgPath) {
		if f.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}

// FindImportedFact looks up the single fact (kind, object) in pkgPath.
func (p *Pass) FindImportedFact(pkgPath, kind, object string) (Fact, bool) {
	for _, f := range p.ImportedFacts(pkgPath, kind) {
		if f.Object == object {
			return f, true
		}
	}
	return Fact{}, false
}

// objectName renders the fact-object form of a package-level function,
// method, or field: "Func", "Type.Method", or "Type.Field".
func objectName(recvOrType, member string) string {
	if recvOrType == "" {
		return member
	}
	return fmt.Sprintf("%s.%s", recvOrType, member)
}
