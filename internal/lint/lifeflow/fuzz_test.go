package lifeflow

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/lint/flow"
)

// FuzzLifecycleLattice feeds arbitrary function bodies to the obligation
// analysis and asserts its contract: it never panics, it terminates (the
// facts fixpoint is bounded and the path walk visits each block once), it
// is deterministic, and the lattice is monotone in the interprocedural
// facts — forgetting every module fact (no callee releases a parameter or
// no-returns) can only grow the leak set, never shrink it.
// Type-checking is best-effort; fragments that don't check exercise the
// degraded no-info mode, which must simply stay silent.
func FuzzLifecycleLattice(f *testing.F) {
	seeds := []string{
		`t := time.NewTicker(time.Second); _ = t`,
		`t := time.NewTicker(time.Second); defer t.Stop(); <-t.C`,
		`c, cancel := context.WithCancel(ctx); _ = c; _ = cancel`,
		`c, cancel := context.WithCancel(ctx)
defer cancel()
<-c.Done()`,
		`f, err := os.Open("x")
if err != nil {
	return
}
_ = f.Close()`,
		`f, err := os.Open("x")
if err == nil {
	return
}
_ = f`,
		`mu.Lock()
if cap(ch) > 0 {
	return
}
mu.Unlock()`,
		`mu.Lock(); defer mu.Unlock()`,
		`for {
	t := time.NewTicker(time.Second)
	t.Stop()
}`,
		`go func() { for { ch <- 1 } }()`,
		`select {
case v := <-ch:
	_ = v
default:
}`,
		`c, cancel := context.WithTimeout(ctx, time.Second)
send(c, cancel)`,
		`f, _ := os.Open("x"); _ = f`,
		`os.Open("x")`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := `package p

import (
	"context"
	"os"
	"sync"
	"time"
)

var (
	_ = context.Background
	_ = os.Open
	_ = time.NewTicker
	_ sync.Mutex
)

func send(args ...any) {}

func fuzzed(ctx context.Context, ch chan int, mu *sync.Mutex) {
` + body + "\n}"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		var fd *ast.FuncDecl
		for _, d := range file.Decls {
			if x, ok := d.(*ast.FuncDecl); ok && x.Name.Name == "fuzzed" {
				fd = x
			}
		}
		if fd == nil || fd.Body == nil {
			t.Skip()
		}
		// Best-effort type info; the stdlib importer resolves the real
		// context/os/sync/time packages so built-in pairs carry their
		// actual types.Func identities, exactly as in a real run.
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
		conf.Check("p", fset, []*ast.File{file}, info) //nolint:errcheck // partial info is the point

		pkgs := []flow.PkgSyntax{{Files: []*ast.File{file}, Info: info}}
		a := NewAnalysis(pkgs)
		b := NewAnalysis(pkgs)

		first := a.Check(info, fd.Body)
		second := b.Check(info, fd.Body)

		// Deterministic: two independent analyses agree leak for leak.
		if len(first) != len(second) {
			t.Fatalf("nondeterministic: %d vs %d leaks", len(first), len(second))
		}
		for i := range first {
			if leakKey(first[i]) != leakKey(second[i]) {
				t.Fatalf("nondeterministic leak order: %s vs %s", leakKey(first[i]), leakKey(second[i]))
			}
		}

		// Monotone: dropping every interprocedural fact (bottom of the
		// lattice) can only add leaks — a fact only ever discharges an
		// obligation (releases-param) or exempts a path (no-return).
		strict := &Analysis{
			acquirers: a.acquirers,
			facts:     &Facts{funcs: map[*types.Func]*factInfo{}, releaseNames: a.facts.releaseNames},
		}
		strictLeaks := make(map[string]bool)
		for _, lk := range strict.Check(info, fd.Body) {
			strictLeaks[leakKey(lk)] = true
		}
		for _, lk := range first {
			if !strictLeaks[leakKey(lk)] {
				t.Fatalf("monotonicity violated: %s leaks with facts but not without", leakKey(lk))
			}
		}
	})
}

func leakKey(lk Leak) string {
	return fmt.Sprintf("%d:%s:%v", lk.Ob.Call.Pos(), lk.Ob.BoundName, lk.Ob.Discarded)
}
