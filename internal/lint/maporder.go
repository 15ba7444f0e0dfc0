package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map when the loop body does something
// order-sensitive: appends to a slice, accumulates floats, read-modify-
// writes a float-valued map, emits output through a writer, sends on a
// channel, or invokes a locally-bound closure. Go randomizes map
// iteration order, so any of these makes figures/tables or recorded
// traffic differ between identical runs.
//
// The canonical fix — collect the keys, sort them, range over the sorted
// slice — is recognized and not flagged: a body that only appends the
// range key is exempt when a sort call on that slice follows the loop.
type MapOrder struct{}

func (MapOrder) Name() string { return "maporder" }
func (MapOrder) Doc() string {
	return "flag map iteration whose body appends, accumulates floats, writes output, sends, or calls a closure"
}

// writerCallNames are method/function names whose invocation inside a map
// range means output is being produced in map order.
var writerCallNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Encode": true, "Marshal": true,
	"AddRow": true, "Render": true, "RenderCSV": true, "Plot": true,
}

func (a MapOrder) Run(pass *Pass) {
	for _, file := range pass.Files {
		// Walk with block context so the sorted-keys idiom can look at
		// statements following the range loop.
		var visit func(n ast.Node, siblings []ast.Stmt)
		visit = func(n ast.Node, siblings []ast.Stmt) {
			ast.Inspect(n, func(n ast.Node) bool {
				if blk, ok := n.(*ast.BlockStmt); ok {
					for i, st := range blk.List {
						visit(st, blk.List[i+1:])
					}
					return false
				}
				if rng, ok := n.(*ast.RangeStmt); ok {
					a.checkRange(pass, rng, siblings)
					// Still descend: nested map ranges inside this body
					// get their own sibling context via the BlockStmt
					// case above.
				}
				return true
			})
		}
		visit(file, nil)
	}
}

func (a MapOrder) checkRange(pass *Pass, rng *ast.RangeStmt, after []ast.Stmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if a.isSortedKeyCollection(pass, rng, after) {
		return
	}
	floatMapReads := collectFloatMapReads(pass, rng.Body)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					pass.Report(n.Pos(),
						"append inside map iteration builds a slice in nondeterministic order",
						"collect the keys, sort them, then range over the sorted slice")
					return true
				}
				if pass.Info == nil {
					return true
				}
				if obj, ok := pass.Info.Uses[fun]; ok {
					if _, isVar := obj.(*types.Var); isVar {
						pass.Report(n.Pos(),
							"closure "+fun.Name+" invoked inside map iteration; its effects happen in nondeterministic order",
							"iterate sorted keys, or make the closure's effect order-insensitive")
					}
				}
			case *ast.SelectorExpr:
				if writerCallNames[fun.Sel.Name] {
					pass.Report(n.Pos(),
						"output call "+fun.Sel.Name+" inside map iteration emits rows in nondeterministic order",
						"collect rows first, sort them, then write")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
				if len(n.Lhs) == 1 && isFloat(pass.TypeOf(n.Lhs[0])) {
					pass.Report(n.Pos(),
						"float accumulation inside map iteration depends on iteration order (FP addition is not associative)",
						"accumulate over sorted keys, or sum into a slice and reduce in index order")
				}
			}
			if n.Tok == token.ASSIGN && len(n.Lhs) == 1 {
				if idx, ok := n.Lhs[0].(*ast.IndexExpr); ok {
					base := baseIdent(idx.X)
					if mt, ok := typeAsMap(pass.TypeOf(idx.X)); ok && isFloat(mt.Elem()) &&
						base != nil && floatMapReads[base.Name] {
						pass.Report(n.Pos(),
							"read-modify-write of a float-valued map entry inside map iteration aggregates in nondeterministic order",
							"aggregate over sorted keys so float reduction order is fixed")
					}
				}
			}
		case *ast.SendStmt:
			pass.Report(n.Pos(),
				"channel send inside map iteration delivers messages in nondeterministic order",
				"send over sorted keys so receivers observe a reproducible stream")
		}
		return true
	})
}

// collectFloatMapReads returns the names of float-valued maps read (not
// purely assigned) via indexing anywhere in body. A write to such a map
// inside the same loop is a read-modify-write aggregation, whose float
// reduction order then depends on map iteration order — even when the
// read happens through an intermediate variable (`if prev, ok := m[k]`).
func collectFloatMapReads(pass *Pass, body *ast.BlockStmt) map[string]bool {
	reads := make(map[string]bool)
	assigned := make(map[*ast.IndexExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for _, lhs := range as.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					assigned[idx] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		idx, ok := n.(*ast.IndexExpr)
		if !ok || assigned[idx] {
			return true
		}
		if mt, ok := typeAsMap(pass.TypeOf(idx.X)); ok && isFloat(mt.Elem()) {
			if base := baseIdent(idx.X); base != nil {
				reads[base.Name] = true
			}
		}
		return true
	})
	return reads
}

// isSortedKeyCollection reports whether rng is the first half of the
// canonical fix: a body that only appends the range key to a slice which a
// following statement sorts.
func (a MapOrder) isSortedKeyCollection(pass *Pass, rng *ast.RangeStmt, after []ast.Stmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	slice := baseIdent(assign.Lhs[0])
	if slice == nil {
		return false
	}
	for _, st := range after {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
					for _, arg := range call.Args {
						if mentionsIdent(arg, slice) {
							found = true
						}
					}
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func typeAsMap(t types.Type) (*types.Map, bool) {
	if t == nil {
		return nil, false
	}
	m, ok := t.Underlying().(*types.Map)
	return m, ok
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// baseIdent walks selector/index/star expressions down to the leftmost
// identifier, or nil when the expression has none.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mentionsIdent reports whether expr references an identifier with the
// same object (or, without type info, the same name) as target.
func mentionsIdent(expr ast.Expr, target *ast.Ident) bool {
	if target == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == target.Name {
			found = true
		}
		return true
	})
	return found
}
