package flow

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseFunc type-checks one source file and returns the named function's
// declaration plus the info needed to analyze it.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	if _, err := conf.Check("t", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info, fset
		}
	}
	t.Fatalf("no function %q", name)
	return nil, nil, nil
}

// reachable returns the blocks reachable from the entry.
func reachable(cfg *CFG) map[*Block]bool {
	seen := map[*Block]bool{cfg.Entry: true}
	stack := []*Block{cfg.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
		// wantExitReachable asserts the exit is reachable from entry.
		wantExitReachable bool
	}{
		{"straight", `x := 1; _ = x`, true},
		{"if", `if x := 1; x > 0 { _ = x } else { _ = -x }`, true},
		{"for", `for i := 0; i < 3; i++ { _ = i }`, true},
		{"forever", `for { break }`, true},
		{"range", `for i := range []int{1, 2} { _ = i }`, true},
		{"switch", `switch x := 1; x { case 1: _ = x; fallthrough; case 2: default: }`, true},
		{"typeswitch", `var v interface{} = 1; switch v.(type) { case int: case string: }`, true},
		{"select", `ch := make(chan int, 1); select { case v := <-ch: _ = v; default: }`, true},
		{"labels", `outer: for i := 0; i < 2; i++ { for { continue outer } }; goto done; done: return`, true},
		{"goto_back", `i := 0; top: i++; if i < 3 { goto top }`, true},
		{"return_mid", `if true { return }; _ = 1`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package t\nfunc f() {\n" + tc.body + "\n}\n"
			fd, _, _ := parseFunc(t, src, "f")
			cfg := Build(fd.Body)
			if cfg.Entry == nil || cfg.Exit == nil {
				t.Fatal("missing entry/exit")
			}
			if cfg.Blocks[len(cfg.Blocks)-1] != cfg.Exit {
				t.Error("exit is not the last block")
			}
			for i, b := range cfg.Blocks {
				if b.Index != i {
					t.Errorf("block %d has Index %d", i, b.Index)
				}
				for _, s := range b.Succs {
					if s == nil {
						t.Errorf("block %d has nil successor", i)
					}
				}
			}
			if got := reachable(cfg)[cfg.Exit]; got != tc.wantExitReachable {
				t.Errorf("exit reachable = %v, want %v", got, tc.wantExitReachable)
			}
		})
	}
}

func TestCFGNilBody(t *testing.T) {
	cfg := Build(nil)
	if len(cfg.Blocks) != 2 || !reachable(cfg)[cfg.Exit] {
		t.Fatalf("nil body CFG malformed: %d blocks", len(cfg.Blocks))
	}
}

// TestFixedPoint drives the module-facts driver with a toy fact — "a
// call to source() is reachable from this function" — over mutually
// recursive functions: the cycle must converge, a source-free cycle must
// stay at bottom, and the result must not depend on declaration order.
func TestFixedPoint(t *testing.T) {
	decls := []string{
		"func source() int { return 1 }",
		"func ping(n int) int { if n == 0 { return 0 }; return pong(n - 1) }",
		"func pong(n int) int { if n == 0 { return source() }; return ping(n - 1) }",
		"func viaPing() int { return ping(3) }",
		"func spinA(n int) int { return spinB(n) }",
		"func spinB(n int) int { return spinA(n) }",
	}
	want := map[string]bool{
		"source": false, "ping": true, "pong": true, "viaPing": true,
		"spinA": false, "spinB": false,
	}
	reaches := func(src string) map[string]bool {
		t.Helper()
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "t.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		}
		if _, err := (&types.Config{}).Check("t", fset, []*ast.File{file}, info); err != nil {
			t.Fatal(err)
		}
		funcs := ModuleFuncs[bool]([]PkgSyntax{{Files: []*ast.File{file}, Info: info}})
		FixedPoint(funcs, func(fi *FuncInfo[bool]) bool {
			found := false
			ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := CalleeOf(fi.Info, call); fn != nil {
						if callee, ok := funcs[fn]; ok && (fn.Name() == "source" || callee.Fact) {
							found = true
						}
					}
				}
				return true
			})
			return found
		}, func(a, b bool) bool { return a == b })
		got := make(map[string]bool, len(funcs))
		for fn, fi := range funcs {
			got[fn.Name()] = fi.Fact
		}
		return got
	}
	forward := "package t\n" + strings.Join(decls, "\n")
	reversed := "package t\n"
	for i := len(decls) - 1; i >= 0; i-- {
		reversed += decls[i] + "\n"
	}
	for order, src := range map[string]string{"forward": forward, "reversed": reversed} {
		got := reaches(src)
		if len(got) != len(want) {
			t.Errorf("%s: %d functions collected, want %d", order, len(got), len(want))
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s: %s reaches source = %v, want %v", order, name, got[name], w)
			}
		}
	}
}

// TestCFGDeterministic builds the same function repeatedly and checks
// the block structure is identical — the property reproducible lint
// output depends on.
func TestCFGDeterministic(t *testing.T) {
	src := `package t
func f(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		switch {
		case i%2 == 0:
			total += i
		default:
			total -= i
		}
	}
	return total
}
`
	shape := func() string {
		fd, _, _ := parseFunc(t, src, "f")
		cfg := Build(fd.Body)
		var b strings.Builder
		for _, blk := range cfg.Blocks {
			fmt.Fprintf(&b, "%d[%d]:", blk.Index, len(blk.Nodes))
			for _, s := range blk.Succs {
				fmt.Fprintf(&b, " %d", s.Index)
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	first := shape()
	for i := 0; i < 3; i++ {
		if got := shape(); got != first {
			t.Fatalf("CFG shape differs between builds:\n%s\nvs\n%s", first, got)
		}
	}
}
