package flow

import (
	"go/ast"
	"go/types"
	"sort"
)

// PkgSyntax is the slice of one package an interprocedural pass needs:
// its syntax trees and the type info that resolves them. The lint loader
// shares object identities across packages of one load, so facts keyed
// by *types.Func work module-wide.
type PkgSyntax struct {
	Files []*ast.File
	Info  *types.Info
}

// FuncInfo is one module function with a body — its declaration and the
// type info that resolves it — and the fact an interprocedural pass
// currently holds for it.
type FuncInfo[F any] struct {
	Decl *ast.FuncDecl
	Info *types.Info
	Fact F
}

// ModuleFuncs collects every function declared with a body in pkgs,
// each holding F's zero value: the bottom of the pass's lattice.
func ModuleFuncs[F any](pkgs []PkgSyntax) map[*types.Func]*FuncInfo[F] {
	funcs := make(map[*types.Func]*FuncInfo[F])
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
				funcs[fn] = &FuncInfo[F]{Decl: fd, Info: pkg.Info}
			}
		}
	}
	return funcs
}

// FixedPoint recomputes every function's fact with analyze — which reads
// callee facts out of funcs — until a whole round changes none, so
// chains and cycles of helpers converge. Functions are visited in
// (package path, full name, position) order, never map order, so the
// result and anything reported from it are deterministic. Facts must
// only ever grow from their zero value; the round bound is a defence
// against an analyze that oscillates.
func FixedPoint[F any](funcs map[*types.Func]*FuncInfo[F], analyze func(*FuncInfo[F]) F, equal func(a, b F) bool) {
	ordered := make([]*types.Func, 0, len(funcs))
	for fn := range funcs {
		ordered = append(ordered, fn)
	}
	pkgPath := func(fn *types.Func) string {
		if fn.Pkg() == nil {
			return ""
		}
		return fn.Pkg().Path()
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if pa, pb := pkgPath(a), pkgPath(b); pa != pb {
			return pa < pb
		}
		if a.FullName() != b.FullName() {
			return a.FullName() < b.FullName()
		}
		return a.Pos() < b.Pos()
	})
	for round := 0; round < len(ordered)+2; round++ {
		changed := false
		for _, fn := range ordered {
			fi := funcs[fn]
			if nf := analyze(fi); !equal(nf, fi.Fact) {
				fi.Fact = nf
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// CalleeOf resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and calls through function values.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}
