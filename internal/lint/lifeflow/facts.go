package lifeflow

import (
	"go/ast"
	"go/types"
	"slices"

	"repro/internal/lint/flow"
)

// FuncFacts is the lifecycle behaviour of one module function, computed
// bottom-up to a module-wide fixed point by flow.FixedPoint.
type FuncFacts struct {
	// ReleasesParam: the function discharges the i-th parameter's
	// obligation — it calls a release-named method on it, calls it (a
	// cancel func passed down), or hands it to a module callee that
	// does. For variadic functions the last entry covers the slice.
	ReleasesParam []bool
	// NoReturn: the function always terminates the process (its body
	// ends in os.Exit, log.Fatal*, panic, or a module no-return call),
	// so paths through it leak nothing the OS won't reclaim.
	NoReturn bool
}

// Facts holds lifecycle facts for every function declared in the
// analyzed packages.
type Facts struct {
	funcs        map[*types.Func]*factInfo
	releaseNames map[string]bool
}

type factInfo = flow.FuncInfo[FuncFacts]

// ComputeFacts analyzes every function with a body in pkgs. Facts start
// empty and only ever grow across rounds; unknown callees neither
// release nor abort — the package's report-what-you-can-see
// bias.
func ComputeFacts(pkgs []flow.PkgSyntax, releaseNames map[string]bool) *Facts {
	f := &Facts{funcs: flow.ModuleFuncs[FuncFacts](pkgs), releaseNames: releaseNames}
	flow.FixedPoint(f.funcs, f.analyze, lifecycleFactsEqual)
	return f
}

func lifecycleFactsEqual(a, b FuncFacts) bool {
	return a.NoReturn == b.NoReturn && slices.Equal(a.ReleasesParam, b.ReleasesParam)
}

// Lookup returns fn's facts and whether fn is a module function the
// analysis saw.
func (f *Facts) Lookup(fn *types.Func) (FuncFacts, bool) {
	fi, ok := f.funcs[fn]
	if !ok {
		return FuncFacts{}, false
	}
	return fi.Fact, true
}

// ReleasesParamAt reports whether argument i of call is released by the
// callee. Unknown callees answer false: handing a resource to the
// stdlib does not discharge the caller's obligation.
func (f *Facts) ReleasesParamAt(info *types.Info, call *ast.CallExpr, i int) bool {
	fn := flow.CalleeOf(info, call)
	if fn == nil {
		return false
	}
	fi, ok := f.funcs[fn]
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Variadic() && i >= sig.Params().Len()-1 {
		i = sig.Params().Len() - 1
	}
	if i < 0 || i >= len(fi.Fact.ReleasesParam) {
		return false
	}
	return fi.Fact.ReleasesParam[i]
}

// analyze recomputes one function's facts from the current module state.
func (f *Facts) analyze(fi *factInfo) FuncFacts {
	var nf FuncFacts

	// Parameter objects, in signature order; variadic handled by the
	// lookup-side index clamp.
	var params []types.Object
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				params = append(params, nil)
				continue
			}
			for _, name := range field.Names {
				params = append(params, fi.Info.ObjectOf(name))
			}
		}
	}
	nf.ReleasesParam = make([]bool, len(params))

	ast.Inspect(fi.Decl.Body, func(node ast.Node) bool {
		n, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Release-named method on a parameter, or calling a func-typed
		// parameter directly.
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && f.releaseNames[sel.Sel.Name] {
			root := recvObj(fi.Info, sel.X)
			for i, p := range params {
				if p != nil && root == p {
					nf.ReleasesParam[i] = true
				}
			}
		}
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			obj := fi.Info.ObjectOf(id)
			for i, p := range params {
				if p != nil && obj == p {
					nf.ReleasesParam[i] = true
				}
			}
		}
		// Forwarding a parameter to a module callee that releases it.
		for j, arg := range n.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			obj := fi.Info.ObjectOf(id)
			for i, p := range params {
				if p != nil && obj == p && f.ReleasesParamAt(fi.Info, n, j) {
					nf.ReleasesParam[i] = true
				}
			}
		}
		return true
	})

	nf.NoReturn = f.endsInAbort(fi)
	return nf
}

// endsInAbort reports whether the function's last top-level statement
// always terminates the process.
func (f *Facts) endsInAbort(fi *factInfo) bool {
	body := fi.Decl.Body.List
	if len(body) == 0 {
		return false
	}
	es, ok := body[len(body)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := fi.Info.ObjectOf(id).(*types.Builtin); isBuiltin && id.Name == "panic" {
			return true
		}
	}
	fn := flow.CalleeOf(fi.Info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	cf, ok := f.funcs[fn]
	return ok && cf.Fact.NoReturn
}
