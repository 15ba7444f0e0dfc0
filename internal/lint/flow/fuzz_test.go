package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// FuzzBuildCFG feeds arbitrary function bodies through the CFG builder.
// The contract under test: any body the parser accepts must build
// without panicking, with a well-formed block list (exit last, indices
// consistent, no nil successors). Semantically broken programs are in
// scope — the linter runs on in-progress code.
func FuzzBuildCFG(f *testing.F) {
	seeds := []string{
		`x := 1; _ = x`,
		`if a := 1; a > 0 { return } else { a-- }`,
		`for i := 0; i < 10; i++ { if i == 5 { break }; continue }`,
		`for { select { case <-ch: default: break } }`,
		`outer: for { for { continue outer; break outer } }`,
		`switch x { case 1: fallthrough; case 2: default: }`,
		`switch v := v.(type) { case int: _ = v; case string: }`,
		`goto end; x := 1; _ = x; end: return`,
		`top: goto top`,
		`goto missing`,
		`defer f(); go g(); ch <- 1; <-ch; close(ch)`,
		`var a, b = f()`,
		`L1: L2: for { break L1 }`,
		`for range m { for k, v := range m2 { _, _ = k, v } }`,
		`fallthrough`,
		`select {}`,
		`switch {}`,
		`{ { { return } } }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := "package p\nfunc fuzzed() {\n" + body + "\n}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip() // not valid Go; out of contract
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			cfg := Build(fd.Body)
			if cfg.Entry == nil || cfg.Exit == nil {
				t.Fatal("CFG missing entry or exit")
			}
			if cfg.Blocks[len(cfg.Blocks)-1] != cfg.Exit {
				t.Fatal("exit block is not last")
			}
			for i, b := range cfg.Blocks {
				if b.Index != i {
					t.Fatalf("block %d carries Index %d", i, b.Index)
				}
				for _, s := range b.Succs {
					if s == nil {
						t.Fatalf("block %d has a nil successor", i)
					}
				}
			}
		}
	})
}
