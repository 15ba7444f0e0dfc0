package lint

import (
	"go/ast"
	"strings"
)

// deterministicScope is the import-path prefix nodeterm covers: every
// library package. The commands, bench/ and scripts/ sit outside it and
// may read the clock; nothing they call under internal/ can.
const deterministicScope = "repro/internal/"

// NoDeterm forbids wall-clock time and the global math/rand generator in
// every package under repro/internal/. The emulator models time by
// counting work, and randomness must come from the seeded splitmix
// generator in internal/gen — time.Now, time.Since, and math/rand would
// make two runs with the same seed disagree. Because the ban is
// module-wide rather than per simulation package, a clock cannot be
// laundered into a simulation path through a helper package: the helper
// is flagged at the source call.
type NoDeterm struct{}

func (NoDeterm) Name() string { return "nodeterm" }
func (NoDeterm) Doc() string {
	return "forbid time.Now/time.Since and math/rand globals in every package under repro/internal/"
}

func (a NoDeterm) Run(pass *Pass) {
	if !strings.HasPrefix(pass.ImportPath, deterministicScope) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch pass.PkgNameOf(file, ident) {
			case "time":
				switch sel.Sel.Name {
				case "Now", "Since":
					pass.Report(call.Pos(),
						"wall-clock "+ident.Name+"."+sel.Sel.Name+" in library code breaks run-to-run determinism",
						"model time by counting work units, or take a timestamp parameter from the caller")
				}
			case "math/rand", "math/rand/v2":
				pass.Report(call.Pos(),
					"global math/rand."+sel.Sel.Name+" in library code is not seed-reproducible",
					"use the seeded generator in internal/gen (rng) so runs replay bit-for-bit")
			}
			return true
		})
	}
}
