// Package lint is ndplint's analyzer framework: a project-specific
// static-analysis pass over this repository, built only on the stdlib
// go/ast, go/parser, go/token, and go/types packages.
//
// The simulator's whole methodology is counting data movement on an
// emulated cluster, so results are only meaningful if every run is
// bit-for-bit deterministic and data-race-free. The analyzers here encode
// the invariants that keep it that way: no wall-clock time or global RNG
// in simulation paths, no unordered map iteration feeding recorded
// metrics, no silently dropped errors in the output writers, no
// unordered float reductions across goroutines, and no panics in library
// code. (Lock-by-value copies are go vet's copylocks, which the check
// gate runs beside ndplint.)
//
// A finding can be suppressed with a directive comment on the offending
// line or the line above it:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; an ignore without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding: where, which rule, what is wrong, and (when
// the analyzer knows one) a suggested fix.
type Diagnostic struct {
	Position token.Position `json:"position"`
	Rule     string         `json:"rule"`
	Message  string         `json:"message"`
	// SuggestedFix is advisory prose: the idiom that removes the
	// finding.
	SuggestedFix string `json:"suggested_fix,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: %s", d.Position, d.Rule, d.Message)
	if d.SuggestedFix != "" {
		s += " (fix: " + d.SuggestedFix + ")"
	}
	return s
}

// Analyzer is one lint rule. Run inspects the package in pass and reports
// findings through pass.Report.
type Analyzer interface {
	// Name is the rule ID used in output and //lint:ignore directives.
	Name() string
	// Doc is a one-line description of the invariant the rule enforces.
	Doc() string
	Run(pass *Pass)
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer Analyzer
	Fset     *token.FileSet
	// ImportPath is the package's import path (e.g. repro/internal/sim);
	// path-scoped rules key off it.
	ImportPath string
	Files      []*ast.File
	// Info carries go/types results. Type checking is best-effort (a
	// fixture or in-progress file may not fully resolve), so entries can
	// be missing; analyzers degrade to syntactic heuristics when they
	// are.
	Info *types.Info

	diags *[]Diagnostic
	// ignores maps file name -> line -> rules suppressed on that line.
	ignores map[string]map[int][]string
}

// Report records a finding unless an ignore directive covers it.
func (p *Pass) Report(pos token.Pos, message, suggestedFix string) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Position:     position,
		Rule:         p.Analyzer.Name(),
		Message:      message,
		SuggestedFix: suggestedFix,
	})
}

func (p *Pass) suppressed(pos token.Position) bool {
	lines := p.ignores[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, rule := range lines[line] {
			if rule == p.Analyzer.Name() || rule == "*" {
				return true
			}
		}
	}
	return false
}

// TypeOf returns the type of e, or nil when type information is missing.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// PkgNameOf resolves ident to the import path of the package it names,
// using type info when present and falling back to the file's import
// table. It returns "" when ident does not name an imported package.
func (p *Pass) PkgNameOf(file *ast.File, ident *ast.Ident) string {
	if p.Info != nil {
		if obj, ok := p.Info.Uses[ident]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return "" // resolved to something that is not a package
		}
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == ident.Name {
			return path
		}
	}
	return ""
}

const ignorePrefix = "//lint:ignore"

// collectIgnores scans a file's comments for //lint:ignore directives and
// records which rules each line suppresses. Malformed directives (no rule,
// or no reason) are reported as findings of the built-in "ignore" rule so
// suppressions stay auditable.
func collectIgnores(fset *token.FileSet, file *ast.File, into map[string]map[int][]string, diags *[]Diagnostic) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
			if len(fields) < 2 {
				*diags = append(*diags, Diagnostic{
					Position:     pos,
					Rule:         "ignore",
					Message:      "malformed //lint:ignore directive: need a rule and a reason",
					SuggestedFix: "write //lint:ignore <rule> <reason>",
				})
				continue
			}
			if into[pos.Filename] == nil {
				into[pos.Filename] = make(map[int][]string)
			}
			// One directive may suppress several rules at once:
			// //lint:ignore ruleA,ruleB <reason>.
			for _, rule := range strings.Split(fields[0], ",") {
				rule = strings.TrimSpace(rule)
				if rule == "" {
					*diags = append(*diags, Diagnostic{
						Position:     pos,
						Rule:         "ignore",
						Message:      "malformed //lint:ignore directive: empty rule in list",
						SuggestedFix: "write //lint:ignore <rule>[,<rule>...] <reason>",
					})
					continue
				}
				into[pos.Filename][pos.Line] = append(into[pos.Filename][pos.Line], rule)
			}
		}
	}
}

// Run applies every analyzer to every package and returns the findings
// sorted by position then rule, so output order is itself deterministic.
func Run(analyzers []Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := make(map[string]map[int][]string)
		for _, f := range pkg.Files {
			collectIgnores(pkg.Fset, f, ignores, &diags)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				ImportPath: pkg.ImportPath,
				Files:      pkg.Files,
				Info:       pkg.Info,
				diags:      &diags,
				ignores:    ignores,
			}
			a.Run(pass)
		}
	}
	SortDiagnostics(diags)
	return diags
}

// All returns the analyzer suite in stable order. Resource lifecycles
// (files, locks, cancel funcs, snapshot and segment references) are held
// by tests and go vet's lostcancel, not by a rule here.
func All() []Analyzer {
	return []Analyzer{
		NoDeterm{},
		MapOrder{},
		ErrCheck{},
		FloatAcc{},
		PanicPath{},
	}
}

// Relativize rewrites diagnostic positions to be slash-separated paths
// relative to root. Output (JSON, goldens) becomes stable
// across checkouts; unrelated paths are left absolute.
func Relativize(diags []Diagnostic, root string) {
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Position.Filename = filepath.ToSlash(rel)
		}
	}
}

// TypeErrorDiagnostics converts the loader's soft type-check failures
// into findings under the built-in "typecheck" rule. Without this, a
// package that stops compiling (a cmd/ target not covered by the
// analyzers' scopes, say) would slide through the lint gate with every
// analyzer silently degraded to syntax.
func TypeErrorDiagnostics(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, err := range pkg.TypeErrors {
			d := Diagnostic{
				Rule:         "typecheck",
				Message:      err.Error(),
				SuggestedFix: "make the package compile; analyzers cannot vouch for code they cannot type-check",
			}
			if te, ok := err.(types.Error); ok {
				d.Position = te.Fset.Position(te.Pos)
				d.Message = te.Msg
			}
			out = append(out, d)
		}
	}
	return out
}

// SortDiagnostics orders findings by file, line, column, rule — the
// output contract shared by Run, the JSON mode, and the golden test.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Rule < b.Rule
	})
}
