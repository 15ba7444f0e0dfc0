// Package lifeflow is ndplint's resource-lifecycle layer: a module-wide
// acquire/release obligation analysis built on the CFG builder in
// internal/lint/flow. The serving stack lives or dies by lifecycles — a
// leaked snapshot reference pins a graph tier forever, an uncancelled
// context leaks its timer goroutine, a lock held across an error return
// deadlocks the next request — and the syntactic rules do not look at
// whether what is acquired is released.
//
// The model: an acquiring call creates an obligation on the value it
// binds. Every CFG path from the acquisition must reach one of
//
//   - a release: the paired method on the bound value (f.Close(),
//     t.Stop(), mu.Unlock()), calling the bound value itself (context
//     cancel funcs), or passing it to a module function whose computed
//     facts prove it releases that parameter;
//   - an ownership transfer (transferable pairs only): the bound value
//     returned in value position, stored through an assignment, sent on
//     a channel, placed in a composite literal, or captured by a
//     function literal — the receiver is the new owner;
//   - an abort: panic, os.Exit, log.Fatal*, runtime.Goexit, or a module
//     function the facts prove never returns.
//
// Paths guarded by the acquisition's companion result (the error of
// os.Open, the bool of an annotated acquirer) are exempt on the failure
// side: nothing was acquired there.
//
// Pairs come from a built-in stdlib table plus a one-line annotation on
// module acquirers:
//
//	//lint:pair acquire=Get release=release
//
// which declares that the annotated function's first result must have
// the named method called on every path (or be transferred), with a
// trailing error/bool result acting as the companion guard.
//
// Soundness bias, matching the rest of ndplint: report only what the
// analysis can see. Unknown callees neither release nor abort; aliasing
// through data structures is not tracked (storing the value counts as a
// transfer instead); function literals that capture the bound value are
// assumed to take ownership. Everything here must tolerate arbitrary —
// including fuzz-generated — syntax trees without panicking.
package lifeflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/flow"
)

// ReleaseKind says how an obligation is discharged.
type ReleaseKind int

const (
	// ReleaseMethod: calling the named method on the bound value
	// releases it (f.Close, t.Stop, mu.Unlock).
	ReleaseMethod ReleaseKind = iota
	// ReleaseCall: the bound value is itself the release — calling it
	// discharges the obligation (context cancel functions).
	ReleaseCall
)

// PairSpec describes one acquire/release pair.
type PairSpec struct {
	Kind ReleaseKind
	// Name is the releasing method name (ReleaseMethod) or a display
	// name for the call (ReleaseCall).
	Name string
	// Acquire is the acquiring call's display name, for messages.
	Acquire string
	// What names the acquired resource, for messages.
	What string
	// Transferable: ownership can be handed off (returned, stored,
	// sent, captured). Mutexes are not transferable.
	Transferable bool
	// AutoFix: a missing release with no partial release/transfer can
	// be mechanically repaired with a defer right after the acquire.
	AutoFix bool
}

// ReleaseText renders the statement text that discharges an obligation
// bound to the named variable.
func (s *PairSpec) ReleaseText(bound string) string {
	if s.Kind == ReleaseCall {
		return bound + "()"
	}
	return bound + "." + s.Name + "()"
}

// builtinPair is one stdlib acquirer: its spec, which result index
// carries the obligation, and which result (if any) is the companion
// guard (-1: none).
type builtinPair struct {
	spec      *PairSpec
	result    int
	companion int
}

var (
	cancelSpec  = &PairSpec{Kind: ReleaseCall, Name: "cancel", What: "cancel function", Transferable: true, AutoFix: true}
	stopSpec    = &PairSpec{Kind: ReleaseMethod, Name: "Stop", What: "timer goroutine", Transferable: true, AutoFix: true}
	closeSpec   = &PairSpec{Kind: ReleaseMethod, Name: "Close", What: "descriptor", Transferable: true}
	unlockSpec  = &PairSpec{Kind: ReleaseMethod, Name: "Unlock", Acquire: "Lock", What: "mutex", Transferable: false}
	rUnlockSpec = &PairSpec{Kind: ReleaseMethod, Name: "RUnlock", Acquire: "RLock", What: "read lock", Transferable: false}
)

// builtinPairs maps "pkgpath.Func" to its acquire shape. The table is
// deliberately small: the pairs the repo actually uses, each with an
// unambiguous release.
var builtinPairs = map[string]builtinPair{
	"context.WithCancel":      {spec: cancelSpec, result: 1, companion: -1},
	"context.WithTimeout":     {spec: cancelSpec, result: 1, companion: -1},
	"context.WithDeadline":    {spec: cancelSpec, result: 1, companion: -1},
	"os/signal.NotifyContext": {spec: cancelSpec, result: 1, companion: -1},
	"time.NewTicker":          {spec: stopSpec, result: 0, companion: -1},
	"time.NewTimer":           {spec: stopSpec, result: 0, companion: -1},
	"os.Open":                 {spec: closeSpec, result: 0, companion: 1},
	"os.Create":               {spec: closeSpec, result: 0, companion: 1},
	"os.OpenFile":             {spec: closeSpec, result: 0, companion: 1},
	"net.Listen":              {spec: closeSpec, result: 0, companion: 1},
	"net.Dial":                {spec: closeSpec, result: 0, companion: 1},
}

// acqSite is the acquire shape of an annotated module function.
type acqSite struct {
	spec      *PairSpec
	result    int
	companion int
}

// Obligation is one acquisition that must be discharged on every path
// of its region.
type Obligation struct {
	// Call is the acquiring call expression.
	Call *ast.CallExpr
	// Stmt is the statement binding the acquisition (assignment for
	// bound pairs, the expression statement for mutex locks).
	Stmt ast.Stmt
	// Bound is the object carrying the obligation: the bound result
	// variable, or the mutex object for locks. Nil when discarded.
	Bound     types.Object
	BoundName string
	// Companion is the error/bool result acquired alongside Bound;
	// branches testing it for failure are exempt. Nil when none.
	Companion types.Object
	Spec      *PairSpec
	// Discarded: the acquiring call's result was dropped entirely, so
	// the resource can never be released.
	Discarded bool
}

// Leak is one obligation some exit path fails to discharge.
type Leak struct {
	Ob Obligation
	// CanFix: no path releases or transfers the bound value at all and
	// the acquire is a direct child of the region body, so inserting a
	// defer right after it is safe and sufficient.
	CanFix bool
	// InsertAfter is the position (the acquire statement's End) where a
	// "defer <release>" insertion repairs the leak, valid iff CanFix.
	InsertAfter token.Pos
}

// Malformed is a //lint:pair directive the parser rejected.
type Malformed struct {
	Pos    token.Pos
	Reason string
}

// Analysis is the module-wide lifecycle state: annotated acquirer
// specs and interprocedural facts. Build once per module via
// NewAnalysis.
type Analysis struct {
	acquirers map[*types.Func]acqSite
	facts     *Facts
	// Malformed collects rejected //lint:pair directives for the
	// analyzers to report.
	Malformed []Malformed
}

const pairPrefix = "//lint:pair"

// NewAnalysis parses every //lint:pair annotation in pkgs and computes
// the interprocedural lifecycle facts.
func NewAnalysis(pkgs []flow.PkgSyntax) *Analysis {
	a := &Analysis{acquirers: make(map[*types.Func]acqSite)}
	releaseNames := map[string]bool{
		"Close": true, "Stop": true, "Shutdown": true,
		"Unlock": true, "RUnlock": true,
		"Release": true, "release": true,
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil || pkg.Info == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if !strings.HasPrefix(c.Text, pairPrefix) {
						continue
					}
					a.parsePair(pkg.Info, fd, c, releaseNames)
				}
			}
		}
	}
	a.facts = ComputeFacts(pkgs, releaseNames)
	return a
}

// parsePair validates one //lint:pair directive on fd and registers the
// function as an acquirer. Shape: the first result carries the
// obligation; a trailing error or bool result is the companion guard.
func (a *Analysis) parsePair(info *types.Info, fd *ast.FuncDecl, c *ast.Comment, releaseNames map[string]bool) {
	var acquire, release string
	for _, f := range strings.Fields(strings.TrimPrefix(c.Text, pairPrefix)) {
		switch {
		case strings.HasPrefix(f, "acquire="):
			acquire = strings.TrimPrefix(f, "acquire=")
		case strings.HasPrefix(f, "release="):
			release = strings.TrimPrefix(f, "release=")
		}
	}
	bad := func(reason string) {
		a.Malformed = append(a.Malformed, Malformed{Pos: c.Pos(), Reason: reason})
	}
	if acquire == "" || release == "" {
		bad("need acquire=<func> and release=<method>")
		return
	}
	if acquire != fd.Name.Name {
		bad("acquire=" + acquire + " does not name the annotated function " + fd.Name.Name)
		return
	}
	results := fd.Type.Results
	if results == nil || len(results.List) == 0 {
		bad("annotated acquirer " + acquire + " returns nothing to release")
		return
	}
	fn, ok := info.ObjectOf(fd.Name).(*types.Func)
	if !ok {
		return
	}
	site := acqSite{
		spec: &PairSpec{
			Kind:         ReleaseMethod,
			Name:         release,
			Acquire:      acquire,
			What:         acquire + " handle",
			Transferable: true,
		},
		result:    0,
		companion: -1,
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Results().Len() > 1 {
		last := sig.Results().At(sig.Results().Len() - 1).Type()
		if isErrorType(last) || isBoolType(last) {
			site.companion = sig.Results().Len() - 1
		}
	}
	a.acquirers[fn] = site
	releaseNames[release] = true
}

// acquireAt matches call against the built-in table and the annotated
// acquirers.
func (a *Analysis) acquireAt(info *types.Info, call *ast.CallExpr) (acqSite, bool) {
	fn := flow.CalleeOf(info, call)
	if fn == nil {
		return acqSite{}, false
	}
	if fn.Pkg() != nil {
		if bp, ok := builtinPairs[fn.Pkg().Path()+"."+fn.Name()]; ok {
			site := acqSite{spec: bp.spec, result: bp.result, companion: bp.companion}
			if site.spec.Acquire == "" {
				// Copy so messages can carry the concrete acquirer name.
				spec := *bp.spec
				spec.Acquire = fn.Pkg().Name() + "." + fn.Name()
				site.spec = &spec
			}
			return site, true
		}
	}
	site, ok := a.acquirers[fn]
	return site, ok
}

// Check analyzes one region — a function declaration's body or a
// function literal's body — and returns the obligations some exit path
// leaks. Nested function literals are separate regions and are skipped
// here (capturing the bound value counts as a transfer instead).
func (a *Analysis) Check(info *types.Info, body *ast.BlockStmt) []Leak {
	if info == nil || body == nil {
		return nil
	}
	obs := a.collect(info, body)
	if len(obs) == 0 {
		return nil
	}
	cfg := flow.Build(body)
	var leaks []Leak
	for _, ob := range obs {
		if ob.Discarded {
			leaks = append(leaks, Leak{Ob: ob})
			continue
		}
		if !a.pathLeaks(info, cfg, ob) {
			continue
		}
		lk := Leak{Ob: ob}
		if ob.Spec.AutoFix && ob.BoundName != "" && a.fixable(info, body, ob) {
			lk.CanFix = true
			lk.InsertAfter = ob.Stmt.End()
		}
		leaks = append(leaks, lk)
	}
	return leaks
}

// collect finds every acquisition bound by a top-level statement of the
// region: assignments whose single RHS is an acquiring call, mutex
// Lock/RLock expression statements, and acquiring calls whose result is
// discarded outright.
func (a *Analysis) collect(info *types.Info, body *ast.BlockStmt) []Obligation {
	var obs []Obligation
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own region
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			site, ok := a.acquireAt(info, call)
			if !ok {
				return true
			}
			ob := Obligation{Call: call, Stmt: n, Spec: site.spec}
			if site.result < len(n.Lhs) {
				if id, ok := ast.Unparen(n.Lhs[site.result]).(*ast.Ident); ok && id.Name != "_" {
					ob.Bound = info.ObjectOf(id)
					ob.BoundName = id.Name
				}
			}
			if site.companion >= 0 && site.companion < len(n.Lhs) {
				if id, ok := ast.Unparen(n.Lhs[site.companion]).(*ast.Ident); ok && id.Name != "_" {
					ob.Companion = info.ObjectOf(id)
				}
			}
			if ob.Bound == nil {
				// A blank-bound cancel func is ctxflow's finding, not a
				// leakpair one; other pairs can never be released.
				if ob.Spec.Kind != ReleaseCall {
					ob.Discarded = true
					obs = append(obs, ob)
				}
				return true
			}
			obs = append(obs, ob)
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj, name, spec, ok := lockAcquire(info, call); ok {
				obs = append(obs, Obligation{
					Call: call, Stmt: n, Bound: obj, BoundName: name, Spec: spec,
				})
				return true
			}
			if site, ok := a.acquireAt(info, call); ok && site.spec.Kind != ReleaseCall {
				obs = append(obs, Obligation{
					Call: call, Stmt: n, Spec: site.spec, Discarded: true,
				})
			}
		}
		return true
	})
	return obs
}

// lockAcquire matches m.Lock()/m.RLock() where the method is sync's
// (including promoted methods of embedded mutexes), resolving the mutex
// to its stable declared object.
func lockAcquire(info *types.Info, call *ast.CallExpr) (types.Object, string, *PairSpec, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || info == nil {
		return nil, "", nil, false
	}
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", nil, false
	}
	var spec *PairSpec
	switch fn.Name() {
	case "Lock":
		spec = unlockSpec
	case "RLock":
		spec = rUnlockSpec
	default:
		return nil, "", nil, false
	}
	obj := recvObj(info, sel.X)
	if obj == nil {
		return nil, "", nil, false
	}
	return obj, types.ExprString(sel.X), spec, true
}

// recvObj resolves a receiver expression to the stable object naming
// it: the field object for s.mu (shared across instances of the type),
// the variable object for a local.
func recvObj(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	case *ast.ParenExpr:
		return recvObj(info, e.X)
	case *ast.StarExpr:
		return recvObj(info, e.X)
	case *ast.IndexExpr:
		return recvObj(info, e.X)
	}
	return nil
}

// pathLeaks runs the path-sensitive check: DFS from the node after the
// acquisition; a path that reaches the synthetic exit without a
// release, transfer, or abort leaks. Back-edges into visited blocks are
// assumed resolved (a loop that re-acquires replaces the obligation).
func (a *Analysis) pathLeaks(info *types.Info, cfg *flow.CFG, ob Obligation) bool {
	sb, si := findNode(cfg, ob.Call.Pos())
	if sb == nil {
		return false
	}
	visited := make(map[*flow.Block]bool)
	visited[sb] = true
	var from func(b *flow.Block, idx int) bool
	from = func(b *flow.Block, idx int) bool {
		for i := idx; i < len(b.Nodes); i++ {
			if a.resolves(info, b.Nodes[i], ob) {
				return false
			}
		}
		if b == cfg.Exit {
			return true
		}
		exempt := exemptSucc(info, b, ob)
		for i, s := range b.Succs {
			if i == exempt || visited[s] {
				continue
			}
			visited[s] = true
			if from(s, 0) {
				return true
			}
		}
		return false
	}
	return from(sb, si+1)
}

// findNode locates the CFG node containing pos. It returns the
// narrowest such node: a range statement is emitted as its loop head's
// node and spans the whole body, so an acquisition inside the loop is
// lexically inside it too — the acquire's own statement is the match.
func findNode(cfg *flow.CFG, pos token.Pos) (*flow.Block, int) {
	var (
		bestB *flow.Block
		bestI int
		bestW token.Pos = -1
	)
	for _, b := range cfg.Blocks {
		for i, n := range b.Nodes {
			if n.Pos() <= pos && pos <= n.End() {
				if w := n.End() - n.Pos(); bestW < 0 || w < bestW {
					bestB, bestI, bestW = b, i, w
				}
			}
		}
	}
	return bestB, bestI
}

// exemptSucc returns the index of the successor guarded off by the
// obligation's companion — the branch where acquisition failed and
// nothing needs releasing — or -1. The CFG builder emits condition
// blocks with Succs[0] = then, Succs[1] = else/join.
func exemptSucc(info *types.Info, b *flow.Block, ob Obligation) int {
	if ob.Companion == nil || len(b.Succs) != 2 || len(b.Nodes) == 0 {
		return -1
	}
	cond, ok := b.Nodes[len(b.Nodes)-1].(ast.Expr)
	if !ok {
		return -1
	}
	isComp := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.ObjectOf(id) == ob.Companion
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		compVsNil := (isComp(c.X) && isNil(c.Y)) || (isNil(c.X) && isComp(c.Y))
		if !compVsNil {
			return -1
		}
		switch c.Op {
		case token.NEQ: // if err != nil { <failure> }
			return 0
		case token.EQL: // if err == nil { <success> } — else is failure
			return 1
		}
	case *ast.UnaryExpr: // if !ok { <failure> }
		if c.Op == token.NOT && isComp(c.X) {
			return 0
		}
	case *ast.Ident: // if ok { <success> } — else is failure
		if isComp(c) {
			return 1
		}
	}
	return -1
}

// resolves reports whether executing node n discharges ob: a release,
// an ownership transfer (transferable pairs), or an abort. Function
// literals mentioning the bound value take ownership and are not
// descended into.
func (a *Analysis) resolves(info *types.Info, n ast.Node, ob Obligation) bool {
	done := false
	ast.Inspect(n, func(c ast.Node) bool {
		if done {
			return false
		}
		switch c := c.(type) {
		case *ast.FuncLit:
			if ob.Bound != nil && ob.Spec.Transferable && mentions(info, c, ob.Bound) {
				done = true
			}
			return false
		case *ast.CallExpr:
			if a.releasesCall(info, c, ob) || a.aborts(info, c) {
				done = true
				return false
			}
		case *ast.ReturnStmt:
			if ob.Spec.Transferable {
				for _, r := range c.Results {
					if boundAsValue(info, r, ob.Bound) {
						done = true
					}
				}
			}
		case *ast.AssignStmt:
			if ob.Spec.Transferable && c != ob.Stmt {
				for _, r := range c.Rhs {
					if boundAsValue(info, r, ob.Bound) {
						done = true
					}
				}
			}
		case *ast.SendStmt:
			if ob.Spec.Transferable && boundAsValue(info, c.Value, ob.Bound) {
				done = true
			}
		case *ast.CompositeLit:
			if !ob.Spec.Transferable {
				return true
			}
			for _, e := range c.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if boundAsValue(info, e, ob.Bound) {
					done = true
				}
			}
		}
		return true
	})
	return done
}

// releasesCall reports whether call releases ob's bound value: the
// paired method on it, calling it (cancel funcs), or passing it to a
// module function the facts prove releases that parameter.
func (a *Analysis) releasesCall(info *types.Info, call *ast.CallExpr, ob Obligation) bool {
	if ob.Bound == nil {
		return false
	}
	switch ob.Spec.Kind {
	case ReleaseCall:
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && info.ObjectOf(id) == ob.Bound {
			return true
		}
	case ReleaseMethod:
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			sel.Sel.Name == ob.Spec.Name && recvObj(info, sel.X) == ob.Bound {
			return true
		}
	}
	for i, arg := range call.Args {
		if boundAsValue(info, arg, ob.Bound) && a.facts.ReleasesParamAt(info, call, i) {
			return true
		}
	}
	return false
}

// aborts reports whether call never returns: panic, process exit, or a
// module function the facts prove no-return. Paths that abort leak
// nothing the OS won't reclaim.
func (a *Analysis) aborts(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin && id.Name == "panic" {
			return true
		}
	}
	fn := flow.CalleeOf(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	ff, ok := a.facts.Lookup(fn)
	return ok && ff.NoReturn
}

// boundAsValue reports whether e hands off the bound object as a value:
// the identifier itself, its address, or either through parentheses.
// Selections, comparisons, and calls are uses, not handoffs.
func boundAsValue(info *types.Info, e ast.Expr, bound types.Object) bool {
	if bound == nil {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e) == bound
	case *ast.UnaryExpr:
		return e.Op == token.AND && boundAsValue(info, e.X, bound)
	}
	return false
}

// mentions reports whether any identifier under n resolves to obj.
func mentions(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return true
	})
	return found
}

// fixable reports whether inserting a defer right after the acquire is
// a safe repair: nothing anywhere in the region releases or transfers
// the bound value (so the defer cannot double-release), and the acquire
// statement is a direct child of the region body (so the insertion
// point is unambiguous).
func (a *Analysis) fixable(info *types.Info, body *ast.BlockStmt, ob Obligation) bool {
	direct := false
	for _, s := range body.List {
		if s == ob.Stmt {
			direct = true
			break
		}
	}
	if !direct {
		return false
	}
	return !a.resolves(info, body, ob)
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

func isBoolType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok {
		if n, okn := t.(*types.Named); okn {
			b, ok = n.Underlying().(*types.Basic)
		}
	}
	return ok && b.Kind() == types.Bool
}
