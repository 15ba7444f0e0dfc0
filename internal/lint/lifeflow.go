// lifeflow.go wires the "lifeflow" analyzers: resource-lifecycle rules
// built on internal/lint/lifeflow's obligation analysis. They ask "does
// what we acquire get released, does the context we already have
// actually flow?" — the invariants the ndpserve serving stack
// (refcounted snapshots, cancellable jobs) depends on.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/lint/flow"
	"repro/internal/lint/lifeflow"
)

// Lifeflow returns the resource-lifecycle rules.
func Lifeflow() []Analyzer {
	return []Analyzer{
		LeakPair{},
		CtxFlow{},
	}
}

// lifeflowOf builds the module-wide lifecycle analysis once per Run.
func lifeflowOf(mod *Module) *lifeflow.Analysis {
	return mod.Memoize("lifeflow.state", func() any {
		pkgs := make([]flow.PkgSyntax, 0, len(mod.Pkgs))
		for _, pkg := range mod.Pkgs {
			pkgs = append(pkgs, flow.PkgSyntax{Files: pkg.Files, Info: pkg.Info})
		}
		return lifeflow.NewAnalysis(pkgs)
	}).(*lifeflow.Analysis)
}

// forEachFuncDecl invokes visit for every function declaration with a
// body in the pass's files.
func forEachFuncDecl(pass *Pass, visit func(file *ast.File, fd *ast.FuncDecl)) {
	if pass.Info == nil {
		return
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(file, fd)
		}
	}
}

// LeakPair enforces paired acquire/release obligations path-sensitively:
// every CFG exit of the acquiring region must release the resource,
// transfer its ownership, or abort the process. Pairs come from the
// built-in stdlib table (files, listeners, tickers, cancel funcs, sync
// locks) plus //lint:pair annotations on module acquirers.
type LeakPair struct{}

func (LeakPair) Name() string { return "leakpair" }
func (LeakPair) Doc() string {
	return "every acquired resource (file, lock, ticker, cancel func, //lint:pair handle) is released or transferred on every path"
}

func (LeakPair) Run(pass *Pass) {
	if pass.Info == nil {
		return
	}
	an := lifeflowOf(pass.Mod)
	for _, m := range an.Malformed {
		for _, file := range pass.Files {
			if m.Pos >= file.Pos() && m.Pos <= file.End() {
				pass.Report(m.Pos,
					"malformed //lint:pair directive: "+m.Reason,
					"write //lint:pair acquire=<func> release=<method> on the acquiring function")
			}
		}
	}
	forEachFuncDecl(pass, func(file *ast.File, fd *ast.FuncDecl) {
		regions := []*ast.BlockStmt{fd.Body}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				regions = append(regions, lit.Body)
			}
			return true
		})
		for _, region := range regions {
			for _, ob := range an.Check(pass.Info, region) {
				reportLeak(pass, ob)
			}
		}
	})
}

func reportLeak(pass *Pass, ob lifeflow.Obligation) {
	if ob.Discarded {
		pass.Report(ob.Call.Pos(),
			fmt.Sprintf("result of %s is discarded; the %s can never be released", ob.Spec.Acquire, ob.Spec.What),
			fmt.Sprintf("bind the result and call %s when done", ob.Spec.Name))
		return
	}
	pass.Report(ob.Call.Pos(),
		fmt.Sprintf("%s acquired by %s is not released on every path", ob.BoundName, ob.Spec.Acquire),
		fmt.Sprintf("call %s on every exit path, or transfer ownership (return/store/send) explicitly", ob.Spec.ReleaseText(ob.BoundName)))
}

// CtxFlow enforces context plumbing: a fresh context.Background()/TODO()
// is flagged when a context is already reachable in the function (the
// cmd/ndprun bug where the cluster path ignored the signal-aware ctx),
// a discarded cancel func is flagged (its context can never be
// released), and a context stored into a struct field is flagged
// (lifetimes detach from the call tree; suppress with a justified
// //lint:ignore when the ownership handoff is deliberate).
type CtxFlow struct{}

func (CtxFlow) Name() string { return "ctxflow" }
func (CtxFlow) Doc() string {
	return "no fresh context.Background/TODO where a context is already in scope; no discarded cancel funcs; no undocumented ctx struct stores"
}

func (CtxFlow) Run(pass *Pass) {
	forEachFuncDecl(pass, func(file *ast.File, fd *ast.FuncDecl) {
		// Contexts in scope: parameters, then locals with their
		// defining statements (a Background inside its own defining
		// statement — ctx := WithTimeout(Background(), …) — is exempt).
		type ctxLocal struct {
			obj  types.Object
			stmt *ast.AssignStmt
		}
		var ctxParam types.Object
		if fd.Type.Params != nil {
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if obj := pass.Info.ObjectOf(name); obj != nil && isCtxType(obj.Type()) {
						ctxParam = obj
					}
				}
			}
		}
		var locals []ctxLocal
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if obj := pass.Info.ObjectOf(id); obj != nil && isCtxType(obj.Type()) {
					locals = append(locals, ctxLocal{obj: obj, stmt: as})
				}
			}
			return true
		})

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := flow.CalleeOf(pass.Info, n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
					return true
				}
				if fn.Name() != "Background" && fn.Name() != "TODO" {
					return true
				}
				inScope := ""
				if ctxParam != nil {
					inScope = ctxParam.Name()
				}
				for _, l := range locals {
					if l.stmt.Pos() <= n.Pos() && n.Pos() <= l.stmt.End() {
						continue // its own defining statement
					}
					// The declared scope must reach the call site: a
					// ctx local inside a closure or inner block is not
					// in scope for the code after it.
					if scope := l.obj.Parent(); scope != nil && !scope.Contains(n.Pos()) {
						continue
					}
					if l.obj.Pos() < n.Pos() {
						inScope = l.obj.Name()
					}
				}
				if inScope != "" {
					pass.Report(n.Pos(),
						fmt.Sprintf("fresh context.%s() where context %s is already in scope; cancellation will not propagate", fn.Name(), inScope),
						fmt.Sprintf("derive from %s (or thread it through) instead of starting a new context tree", inScope))
				}
			case *ast.AssignStmt:
				reportCtxAssign(pass, n)
			}
			return true
		})
	})
}

// reportCtxAssign flags discarded cancel funcs and contexts stored into
// struct fields.
func reportCtxAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && len(as.Lhs) == 2 {
			if fn := flow.CalleeOf(pass.Info, call); fn != nil && fn.Pkg() != nil && isCancelCtor(fn) {
				if id, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident); ok && id.Name == "_" {
					pass.Report(as.Pos(),
						fmt.Sprintf("cancel function of %s.%s is discarded; the context and its resources can never be released", fn.Pkg().Name(), fn.Name()),
						"bind the cancel func and defer it (or call it on every exit path)")
				}
			}
		}
	}
	for i, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || i >= len(as.Rhs) {
			continue
		}
		if t := pass.TypeOf(sel); t != nil && isCtxType(t) {
			pass.Report(as.Pos(),
				"context stored into a struct field; its lifetime detaches from the call tree",
				"pass the context as a parameter, or document the ownership with a //lint:ignore ctxflow <reason>")
		}
	}
}

func isCancelCtor(fn *types.Func) bool {
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "context.WithCancel", "context.WithTimeout", "context.WithDeadline", "os/signal.NotifyContext":
		return true
	}
	return false
}

func isCtxType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}
