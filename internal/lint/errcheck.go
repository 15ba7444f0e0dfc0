package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrCheck flags calls whose error result is silently dropped — a call
// statement (plain, deferred, or go'd) to a function whose last result is
// error. A truncated CSV or report that "succeeded" is worse than a loud
// failure, so the output writers especially must check.
//
// Deliberate discards stay available: assign to _ explicitly, or write
// //lint:ignore errcheck <reason>. Three conventional cases are exempt:
// the implicit-stdout printers fmt.Print/Printf/Println (terminal
// chatter, the errcheck convention), fmt.Fprint* to os.Stderr
// (best-effort diagnostics), and writes into strings.Builder /
// bytes.Buffer (documented to never fail). fmt.Fprint* to any other
// writer — including an os.Stdout variable used as a report sink — is
// checked: a truncated report must fail loudly.
type ErrCheck struct{}

func (ErrCheck) Name() string { return "errcheck" }
func (ErrCheck) Doc() string {
	return "flag dropped error returns in non-test files (stderr diagnostics and in-memory builders exempt)"
}

func (a ErrCheck) Run(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			// Deferred calls are deliberately not flagged: deferred
			// cleanup is conventionally best-effort (defer f.Close() on
			// a read path), and the non-deferred path is the one that
			// must check.
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = st.Call
			}
			if call == nil || !a.returnsError(pass, call) || a.exempt(pass, file, call) {
				return true
			}
			pass.Report(call.Pos(),
				"error result of "+callName(call)+" is dropped",
				"check the error, or assign it to _ if discarding is deliberate")
			return true
		})
	}
}

func (ErrCheck) returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	isErr := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
	}
	switch t := t.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErr(t.At(t.Len()-1).Type())
	default:
		return isErr(t)
	}
}

// exempt recognizes the two sanctioned drop sites.
func (ErrCheck) exempt(pass *Pass, file *ast.File, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkgIdent, ok := sel.X.(*ast.Ident); ok && pass.PkgNameOf(file, pkgIdent) == "fmt" {
		// Implicit-stdout printers: terminal chatter, exempt by the
		// errcheck convention.
		switch sel.Sel.Name {
		case "Print", "Printf", "Println":
			return true
		}
		if strings.HasPrefix(sel.Sel.Name, "Fprint") && len(call.Args) > 0 {
			// fmt.Fprint* with os.Stderr as the first argument:
			// diagnostics are best-effort; the process is usually about
			// to exit anyway.
			if argSel, ok := call.Args[0].(*ast.SelectorExpr); ok {
				if osIdent, ok := argSel.X.(*ast.Ident); ok &&
					pass.PkgNameOf(file, osIdent) == "os" && argSel.Sel.Name == "Stderr" {
					return true
				}
			}
			// fmt.Fprint* into an in-memory builder cannot fail.
			if isBuilderType(pass.TypeOf(call.Args[0])) {
				return true
			}
		}
	}
	// Methods on strings.Builder / bytes.Buffer never return a non-nil
	// error (documented contract).
	return isBuilderType(pass.TypeOf(sel.X))
}

// isBuilderType reports whether t is (a pointer to) strings.Builder or
// bytes.Buffer, whose Write methods are documented to never fail.
func isBuilderType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	name := t.String()
	return name == "strings.Builder" || name == "bytes.Buffer"
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if base := baseIdent(fun); base != nil {
			return base.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}
