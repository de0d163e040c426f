// Package lint is a repo-specific static-analysis suite ("cachelint")
// built on the standard library's go/parser, go/types, and go/importer
// only — the build environment is offline, so no external analysis
// framework is available.
//
// The suite enforces, mechanically, the conventions the simulator's
// results depend on:
//
//   - nopanic: core model packages surface faults as sentinel errors,
//     never panics, so a sweep can record a failing configuration and
//     carry on (see internal/harness).
//   - errwrap: fmt.Errorf must wrap error operands with %w so callers
//     can match sentinels with errors.Is; sentinel errors must be
//     package-level vars, not ad-hoc errors.New calls inside functions.
//   - determinism: simulator and reporting packages may not read the
//     wall clock, use the global math/rand, iterate over maps, or write
//     package-level state without a sync primitive — the paper's
//     cycle-accounting figures must be bit-for-bit reproducible run to
//     run, and parallel sweeps (workload.RunParallel) enter these
//     packages from many goroutines.
//   - exhaustive: a switch over a small named constant "enum" type
//     (trace record kinds, write policies, instruction classes) must
//     cover every declared constant or carry a default clause.
//   - statscoverage: every field of core.Stats must be merged by
//     (*Stats).Add and referenced by an invariant check, so a new
//     counter cannot silently escape aggregation or CheckInvariants.
//
// The v2 suite adds flow-aware analyzers built on an intraprocedural
// control-flow graph (BuildCFG) and a may-hold-lock dataflow pass,
// watching the serving stack's concurrency and resource discipline:
//
//   - lockscope: no blocking operation (disk IO, channel communication
//     not guarded by select-with-default, time.Sleep, Wait) on a path
//     where a mutex may be held; no nested acquisition; the store's
//     *Locked naming convention is enforced in both directions.
//   - goroutinelife: every go statement's body carries a shutdown tie
//     (a WaitGroup.Done, a channel receive, or a range over a
//     channel), so drain-and-Close terminates.
//   - ctxflow: request-path code threads its context.Context — no
//     fresh Background()/TODO() roots outside main, no dropped or
//     ignored ctx parameters.
//   - closeall: a handle from an open-like call reaches Close on every
//     control-flow path or visibly escapes to a new owner.
//   - keystable: nothing order-unstable (map iteration, time.Now, %p)
//     flows into the sha256 content address that keys the result cache.
//
// A finding on one line can be suppressed with a justification:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line or the line above. A directive without a
// reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnosis, printed as
// "file:line:col: analyzer: message".
type Finding struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String formats the finding in the conventional compiler style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. "repro/internal/core"
	Fset  *token.FileSet
	Files []*ast.File // non-test files, parsed with comments
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters packages by import path; nil means every package.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// Analyzers returns the full cachelint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoPanic,
		ErrWrap,
		Determinism,
		Exhaustive,
		StatsCoverage,
		LockScope,
		GoroutineLife,
		CtxFlow,
		CloseAll,
		KeyStable,
	}
}

// ByName returns the named analyzer from the suite.
func ByName(name string) (*Analyzer, error) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("lint: unknown analyzer %q", name)
}

// directive is one parsed //lint:allow comment.
type directive struct {
	line     int
	analyzer string
	reason   string
	pos      token.Pos
}

// allowPrefix introduces a suppression directive.
const allowPrefix = "//lint:allow"

// directives extracts the //lint:allow comments of a file.
func directives(fset *token.FileSet, file *ast.File) []directive {
	var ds []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, allowPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
			name, reason, _ := strings.Cut(rest, " ")
			ds = append(ds, directive{
				line:     fset.Position(c.Pos()).Line,
				analyzer: name,
				reason:   strings.TrimSpace(reason),
				pos:      c.Pos(),
			})
		}
	}
	return ds
}

// Check runs the analyzers over the packages, applies //lint:allow
// suppressions, and returns the surviving findings sorted by position.
func Check(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		var ds []directive
		for _, f := range pkg.Files {
			ds = append(ds, directives(pkg.Fset, f)...)
		}
		// A directive must carry both a known analyzer name and a
		// justification; a bare allow is a finding, not a suppression.
		for _, d := range ds {
			if d.analyzer == "" || d.reason == "" {
				pos := pkg.Fset.Position(d.pos)
				all = append(all, Finding{
					Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: "directive",
					Message:  "lint:allow needs an analyzer name and a reason: //lint:allow <analyzer> <reason>",
				})
			}
		}
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			for _, f := range pass.findings {
				if suppressed(ds, f) {
					continue
				}
				all = append(all, f)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		if all[i].Line != all[j].Line {
			return all[i].Line < all[j].Line
		}
		if all[i].Col != all[j].Col {
			return all[i].Col < all[j].Col
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all
}

// suppressed reports whether a directive on the finding's line or the
// line above allows it.
func suppressed(ds []directive, f Finding) bool {
	for _, d := range ds {
		if d.analyzer != f.Analyzer || d.reason == "" {
			continue
		}
		if d.line == f.Line || d.line == f.Line-1 {
			return true
		}
	}
	return false
}

// errorType is the universe error interface, for types.Implements.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements error.
func isErrorType(t types.Type) bool {
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}

// pathIn builds an Applies predicate matching the given import paths
// exactly (the module prefix included, e.g. "repro/internal/core").
func pathIn(paths ...string) func(string) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(pkgPath string) bool { return set[pkgPath] }
}
