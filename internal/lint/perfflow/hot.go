// Package perfflow is the escape/allocation layer beneath ndplint's
// perf analyzers (v3). It provides three module-wide facts built on the
// flow package's CFG and call-graph plumbing:
//
//   - hotness: a function carrying the //perf:hot directive is hot, and
//     hotness propagates bottom-up through the call graph — including
//     through interface-method calls, which mark every module
//     implementation of the method hot (HotFunctions);
//   - a conservative function-local escape lattice over the CFG, so a
//     stack-safe make/&T{} in a loop is distinguishable from one that
//     escapes to the heap (AnalyzeEscape);
//   - per-function allocation facts — does a call return freshly
//     allocated memory, does it escape its arguments — iterated to a
//     module fixed point by flow.FixedPoint (ComputeFacts).
//
// The biases are chosen for linting: unknown callees escape their
// arguments (so "does not escape" is trustworthy and suppresses a
// finding soundly), while unknown callees do not return fresh
// allocations (so a finding is only raised for an allocation the
// analysis can actually see).
package perfflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/flow"
)

// HotMarker is the doc-comment directive that declares a function hot:
// a comment line reading exactly "//perf:hot" (trailing prose allowed
// after a space) in the function's doc group.
const HotMarker = "perf:hot"

// Marked reports whether the declaration carries the //perf:hot
// directive in its doc comment.
func Marked(fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == HotMarker || strings.HasPrefix(text, HotMarker+" ") {
			return true
		}
	}
	return false
}

// HotSet records which module functions are hot: marked //perf:hot, or
// transitively callable from a marked function.
type HotSet struct {
	hot map[*types.Func]bool
}

// IsHot reports whether fn is hot. Only module functions with bodies
// can be hot; nil and external functions answer false.
func (h *HotSet) IsHot(fn *types.Func) bool {
	return fn != nil && h.hot[fn]
}

// HotFunctions computes the hot set for a module: the //perf:hot-marked
// declarations plus everything reachable from them through direct calls
// and interface-method dispatch. For an interface call the closure
// includes the matching method of every module type implementing the
// interface — an over-approximation (the concrete type at runtime may
// be narrower) chosen so a kernel's Emit is hot whenever any engine
// loop invoking the Kernel interface is.
func HotFunctions(pkgs []flow.PkgSyntax) *HotSet {
	type declInfo struct {
		decl *ast.FuncDecl
		info *types.Info
	}
	decls := make(map[*types.Func]*declInfo)
	var seeds []*types.Func
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || pkg.Info == nil {
					continue
				}
				fn, ok := pkg.Info.ObjectOf(fd.Name).(*types.Func)
				if !ok {
					continue
				}
				decls[fn] = &declInfo{decl: fd, info: pkg.Info}
				if Marked(fd) {
					seeds = append(seeds, fn)
				}
			}
		}
	}

	// Module named types, for resolving interface calls to their
	// implementations. Collected from the syntax trees (not the Defs
	// map) and sorted, so propagation order is deterministic.
	seen := make(map[*types.TypeName]bool)
	var named []*types.Named
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, ok := pkg.Info.ObjectOf(ts.Name).(*types.TypeName)
					if !ok || tn.IsAlias() || seen[tn] {
						continue
					}
					seen[tn] = true
					if n, ok := tn.Type().(*types.Named); ok {
						named = append(named, n)
					}
				}
			}
		}
	}
	sort.Slice(named, func(i, j int) bool {
		oi, oj := named[i].Obj(), named[j].Obj()
		pi, pj := "", ""
		if oi.Pkg() != nil {
			pi = oi.Pkg().Path()
		}
		if oj.Pkg() != nil {
			pj = oj.Pkg().Path()
		}
		if pi != pj {
			return pi < pj
		}
		if oi.Name() != oj.Name() {
			return oi.Name() < oj.Name()
		}
		return oi.Pos() < oj.Pos()
	})

	h := &HotSet{hot: make(map[*types.Func]bool)}
	var work []*types.Func
	mark := func(fn *types.Func) {
		if fn == nil || h.hot[fn] {
			return
		}
		if _, ok := decls[fn]; !ok {
			return
		}
		h.hot[fn] = true
		work = append(work, fn)
	}
	for _, fn := range seeds {
		mark(fn)
	}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		di := decls[fn]
		ast.Inspect(di.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := flow.CalleeOf(di.info, call)
			if callee == nil {
				return true
			}
			if _, ok := decls[callee]; ok {
				mark(callee)
				return true
			}
			// An interface method: every module implementation's method
			// of the same name becomes hot.
			sig, ok := callee.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
			if !ok || iface.NumMethods() == 0 {
				return true
			}
			for _, nt := range named {
				if types.IsInterface(nt) {
					continue
				}
				if !types.Implements(nt, iface) && !types.Implements(types.NewPointer(nt), iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(nt, true, callee.Pkg(), callee.Name())
				if m, ok := obj.(*types.Func); ok {
					mark(m)
				}
			}
			return true
		})
	}
	return h
}
