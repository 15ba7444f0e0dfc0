package perfflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"repro/internal/lint/flow"
)

// FuncFacts is the allocation behaviour of one module function.
type FuncFacts struct {
	// ReturnsAlloc: some returned value is freshly heap-allocated inside
	// the function (directly or through a module callee), so every call
	// allocates.
	ReturnsAlloc bool
	// RecvEscapes / ParamEscapes: the receiver / i-th parameter may
	// escape through the function (to a global, a return value, a
	// channel, or an escaping callee). For variadic functions the last
	// entry covers the whole variadic slice.
	RecvEscapes  bool
	ParamEscapes []bool
}

// Facts holds per-function allocation facts for every function declared
// in the analyzed packages, iterated to a module-wide fixed point by
// flow.FixedPoint.
type Facts struct {
	funcs map[*types.Func]*factInfo
}

type factInfo = flow.FuncInfo[FuncFacts]

// ComputeFacts analyzes every function with a body in pkgs. Module
// callees start optimistic (nothing escapes, nothing allocates) and
// only ever gain facts across rounds; unknown callees escape their
// arguments and return nothing fresh, per the package's lint bias.
func ComputeFacts(pkgs []flow.PkgSyntax) *Facts {
	f := &Facts{funcs: flow.ModuleFuncs[FuncFacts](pkgs)}
	flow.FixedPoint(f.funcs, f.analyze, factsEqual)
	return f
}

func factsEqual(a, b FuncFacts) bool {
	return a.ReturnsAlloc == b.ReturnsAlloc && a.RecvEscapes == b.RecvEscapes &&
		slices.Equal(a.ParamEscapes, b.ParamEscapes)
}

// Lookup returns fn's facts and whether fn is a module function the
// pass analyzed.
func (f *Facts) Lookup(fn *types.Func) (FuncFacts, bool) {
	fi, ok := f.funcs[fn]
	if !ok {
		return FuncFacts{}, false
	}
	return fi.Fact, true
}

// CallReturnsAlloc reports whether call returns freshly heap-allocated
// memory: a module function whose facts say so. Unknown callees answer
// false — the analyzers only flag allocations the analysis can see.
func (f *Facts) CallReturnsAlloc(info *types.Info, call *ast.CallExpr) bool {
	fn := flow.CalleeOf(info, call)
	if fn == nil {
		return false
	}
	ff, ok := f.Lookup(fn)
	return ok && ff.ReturnsAlloc
}

// ArgEscapesAt reports whether argument i of call (receiver: -1)
// escapes through the callee. Unknown callees — stdlib, interface
// methods, function values — conservatively escape everything.
func (f *Facts) ArgEscapesAt(info *types.Info, call *ast.CallExpr, i int) bool {
	fn := flow.CalleeOf(info, call)
	if fn == nil {
		return true
	}
	fi, ok := f.funcs[fn]
	if !ok {
		return true
	}
	if i < 0 {
		return fi.Fact.RecvEscapes
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return true
	}
	if sig.Variadic() && i >= sig.Params().Len()-1 {
		i = sig.Params().Len() - 1
	}
	if i < 0 || i >= len(fi.Fact.ParamEscapes) {
		return true
	}
	return fi.Fact.ParamEscapes[i]
}

// analyze recomputes one function's facts from the current module
// state: an escape run for the parameter/receiver facts, and a local
// allocish fixpoint for ReturnsAlloc.
func (f *Facts) analyze(fi *factInfo) FuncFacts {
	argEsc := func(call *ast.CallExpr, i int) bool {
		return f.ArgEscapesAt(fi.Info, call, i)
	}
	res := AnalyzeEscape(fi.Info, fi.Decl, argEsc)

	var nf FuncFacts
	if fi.Decl.Recv != nil {
		for _, field := range fi.Decl.Recv.List {
			for _, name := range field.Names {
				if res.ObjEscapes(fi.Info.ObjectOf(name)) {
					nf.RecvEscapes = true
				}
			}
		}
	}
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			for _, name := range field.Names {
				nf.ParamEscapes = append(nf.ParamEscapes,
					res.ObjEscapes(fi.Info.ObjectOf(name)))
			}
			if len(field.Names) == 0 {
				nf.ParamEscapes = append(nf.ParamEscapes, false)
			}
		}
	}
	nf.ReturnsAlloc = f.returnsAlloc(fi)
	return nf
}

// returnsAlloc decides whether some return value of fi is freshly
// allocated: a small intra-function fixpoint over "allocish" locals
// (assigned from make/new/&x/reference literals/append/ReturnsAlloc
// callees), then a scan of the function's own return statements (not
// those of nested literals). Conversions propagate their operand;
// stdlib calls are not fresh (documented under-approximation — fmt's
// allocating formatters are the analyzers' special case).
func (f *Facts) returnsAlloc(fi *factInfo) bool {
	allocish := make(map[types.Object]bool)
	var exprAlloc func(e ast.Expr) bool
	exprAlloc = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return allocish[fi.Info.ObjectOf(e)]
		case *ast.UnaryExpr:
			return e.Op == token.AND
		case *ast.CompositeLit:
			if t := fi.Info.TypeOf(e); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					return true
				}
			}
			return false
		case *ast.FuncLit:
			return true
		case *ast.SliceExpr:
			return exprAlloc(e.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if _, ok := fi.Info.ObjectOf(id).(*types.Builtin); ok {
					switch id.Name {
					case "make", "new", "append":
						return true
					}
					return false
				}
			}
			if tv, ok := fi.Info.Types[e.Fun]; ok && tv.IsType() {
				return len(e.Args) == 1 && exprAlloc(e.Args[0])
			}
			return f.CallReturnsAlloc(fi.Info, e)
		}
		return false
	}

	// Allocish propagation over assignments, to a local fixed point.
	// Assignments inside nested literals participate (a closure may
	// store an allocation into an outer local that is then returned).
	for {
		changed := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
							obj := fi.Info.ObjectOf(id)
							if obj != nil && !allocish[obj] && exprAlloc(s.Rhs[i]) {
								allocish[obj] = true
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				if len(s.Values) == len(s.Names) {
					for i, id := range s.Names {
						obj := fi.Info.ObjectOf(id)
						if obj != nil && !allocish[obj] && exprAlloc(s.Values[i]) {
							allocish[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	// Named results: a naked return or an assignment into the named
	// result hands the allocation to the caller.
	namedResults := make([]types.Object, 0, 2)
	if fi.Decl.Type.Results != nil {
		for _, field := range fi.Decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := fi.Info.ObjectOf(name); obj != nil {
					namedResults = append(namedResults, obj)
				}
			}
		}
	}

	found := false
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // its returns are not ours
		case *ast.ReturnStmt:
			if len(s.Results) == 0 {
				for _, obj := range namedResults {
					if allocish[obj] {
						found = true
					}
				}
				return true
			}
			for _, e := range s.Results {
				if exprAlloc(e) {
					found = true
				}
			}
		}
		return true
	}
	ast.Inspect(fi.Decl.Body, scan)
	return found
}
