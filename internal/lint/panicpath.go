package lint

import (
	"go/ast"
	"strings"
)

// PanicPath forbids panic, log.Fatal*, and os.Exit in internal/* library
// code: the experiment harness composes these packages, and one kernel
// aborting the process loses every other artifact of a multi-hour run.
// Commands under cmd/* own the process and may exit; argument-contract
// panics that mirror stdlib conventions can be suppressed with
// //lint:ignore panicpath <reason>.
type PanicPath struct{}

func (PanicPath) Name() string { return "panicpath" }
func (PanicPath) Doc() string {
	return "forbid panic/log.Fatal/os.Exit in internal/* library code (return errors; cmd/* owns the process)"
}

func (a PanicPath) Run(pass *Pass) {
	if !strings.Contains(pass.ImportPath, "/internal/") {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" && isBuiltin(pass, fun) {
					pass.Report(call.Pos(),
						"panic in library code aborts the whole experiment run",
						"return an error and let cmd/* decide how to die")
				}
			case *ast.SelectorExpr:
				ident, ok := fun.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch pass.PkgNameOf(file, ident) {
				case "log":
					if strings.HasPrefix(fun.Sel.Name, "Fatal") || strings.HasPrefix(fun.Sel.Name, "Panic") {
						pass.Report(call.Pos(),
							"log."+fun.Sel.Name+" in library code exits the process",
							"return an error and log at the call site in cmd/*")
					}
				case "os":
					if fun.Sel.Name == "Exit" {
						pass.Report(call.Pos(),
							"os.Exit in library code skips deferred cleanup and kills sibling work",
							"return an error and exit from main")
					}
				}
			}
			return true
		})
	}
}

// isBuiltin reports whether ident resolves to the predeclared identifier
// (i.e. is not shadowed by a local function).
func isBuiltin(pass *Pass, ident *ast.Ident) bool {
	if pass.Info == nil {
		return true
	}
	obj, ok := pass.Info.Uses[ident]
	if !ok {
		return true
	}
	return obj.Pkg() == nil
}
