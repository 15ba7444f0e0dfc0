// Package flow is the framework ndplint's path- and module-sensitive
// analyzers share: a per-function control-flow graph built from go/ast
// (cfg.go), and the one module-wide fixed-point driver that turns a
// per-function analysis into interprocedural facts (module.go). The
// syntactic rules look at one node at a time; the lifeflow rules built
// here reason about paths — an exit some branch reaches without
// releasing what it acquired — and about what a callee does with its
// arguments.
//
// Everything here is stdlib-only (go/ast + go/types) and must never
// panic: the builder is handed arbitrary — including fuzz-generated —
// syntax trees, and a crash in the lint layer would take the check gate
// down with it.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line run of statements
// and condition expressions, entered only at the top, leaving only
// through Succs.
type Block struct {
	// Index is the block's position in CFG.Blocks, stable across builds
	// of the same function.
	Index int
	// Nodes holds the statements (and loop/branch condition expressions)
	// executed in order when control passes through the block.
	Nodes []ast.Node
	// Succs are the possible successors in execution order of discovery.
	Succs []*Block
}

// CFG is one function body's control-flow graph.
type CFG struct {
	Entry *Block
	// Exit is the single synthetic exit block every return and
	// fall-off-the-end path reaches. It holds no nodes.
	Exit *Block
	// Blocks lists every block, Entry first, Exit last.
	Blocks []*Block
}

// Build constructs the CFG of a function body. A nil body (declaration
// without definition) yields a two-block entry→exit graph. The builder
// tolerates any tree the parser produces, including syntactically valid
// but semantically broken code: unresolved labels fall through to Exit
// rather than dangling.
func Build(body *ast.BlockStmt) *CFG {
	b := &builder{
		cfg:    &CFG{},
		labels: make(map[string]*labelTarget),
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{}
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmt(body)
	}
	b.edge(b.cur, b.cfg.Exit)
	// Unresolved gotos (label never defined) exit the function: the
	// conservative choice that keeps every recorded edge realizable.
	for _, lt := range b.labels {
		if !lt.defined {
			for _, from := range lt.pending {
				b.edge(from, b.cfg.Exit)
			}
		}
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// branchCtx is one enclosing breakable/continuable construct.
type branchCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

// labelTarget tracks a named label: the block it starts, and goto edges
// recorded before the label was seen.
type labelTarget struct {
	block   *Block
	defined bool
	pending []*Block
}

type builder struct {
	cfg *CFG
	cur *Block
	// ctxs is the stack of enclosing loops/switches/selects for
	// break/continue resolution.
	ctxs []branchCtx
	// pendingLabel names the label attached to the next loop/switch
	// statement, so labeled break/continue resolve to it.
	pendingLabel string
	labels       map[string]*labelTarget
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

func (b *builder) add(n ast.Node) {
	if n == nil || b.cur == nil {
		return
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the label attached to the statement being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) push(c branchCtx) { b.ctxs = append(b.ctxs, c) }
func (b *builder) pop()             { b.ctxs = b.ctxs[:len(b.ctxs)-1] }

// findBreak returns the break target for an optionally labeled break.
func (b *builder) findBreak(label string) *Block {
	for i := len(b.ctxs) - 1; i >= 0; i-- {
		if label == "" || b.ctxs[i].label == label {
			return b.ctxs[i].breakTo
		}
	}
	return b.cfg.Exit
}

// findContinue returns the continue target (loops only).
func (b *builder) findContinue(label string) *Block {
	for i := len(b.ctxs) - 1; i >= 0; i-- {
		if b.ctxs[i].continueTo == nil {
			continue
		}
		if label == "" || b.ctxs[i].label == label {
			return b.ctxs[i].continueTo
		}
	}
	return b.cfg.Exit
}

func (b *builder) labelFor(name string) *labelTarget {
	lt := b.labels[name]
	if lt == nil {
		lt = &labelTarget{block: b.newBlock()}
		b.labels[name] = lt
	}
	return lt
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		b.takeLabel()
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.LabeledStmt:
		lt := b.labelFor(s.Label.Name)
		lt.defined = true
		b.edge(b.cur, lt.block)
		b.cur = lt.block
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		thenB := b.newBlock()
		b.edge(cond, thenB)
		b.cur = thenB
		b.stmt(s.Body)
		thenEnd := b.cur
		join := b.newBlock()
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cond, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		b.edge(thenEnd, join)
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		post := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.push(branchCtx{label: label, breakTo: after, continueTo: post})
		b.cur = body
		b.stmt(s.Body)
		b.pop()
		b.edge(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.add(s.Post)
		}
		b.edge(post, head)
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(s)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.push(branchCtx{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.pop()
		b.edge(b.cur, head)
		b.cur = after
	case *ast.SwitchStmt:
		b.caseSwitch(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.caseSwitch(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		label := b.takeLabel()
		if s.Body == nil {
			return
		}
		sel := b.cur
		after := b.newBlock()
		b.push(branchCtx{label: label, breakTo: after})
		for _, cl := range s.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			cb := b.newBlock()
			b.edge(sel, cb)
			b.cur = cb
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			for _, st := range comm.Body {
				b.stmt(st)
			}
			b.edge(b.cur, after)
		}
		b.pop()
		b.cur = after
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock()
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			b.edge(b.cur, b.findBreak(label))
			b.cur = b.newBlock()
		case token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			b.edge(b.cur, b.findContinue(label))
			b.cur = b.newBlock()
		case token.GOTO:
			if s.Label != nil {
				lt := b.labelFor(s.Label.Name)
				if lt.defined {
					b.edge(b.cur, lt.block)
				} else {
					// Forward goto: connect now, resolve at Build end if
					// the label never materializes.
					b.edge(b.cur, lt.block)
					lt.pending = append(lt.pending, b.cur)
				}
			}
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// Handled by caseSwitch; as a bare statement it is a no-op
			// node (invalid Go, but the builder must not care).
			b.add(s)
		}
	default:
		// Straight-line statements: expressions, assignments, sends,
		// declarations, go/defer, inc/dec, empty.
		b.takeLabel()
		b.add(s)
	}
}

// caseSwitch builds both expression and type switches: each case body is
// its own block branched to from the dispatch block, with fallthrough
// chaining to the next case in source order.
func (b *builder) caseSwitch(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	dispatch := b.cur
	after := b.newBlock()
	if body == nil {
		b.edge(dispatch, after)
		b.cur = after
		return
	}
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		b.edge(dispatch, blocks[i])
	}
	hasDefault := false
	b.push(branchCtx{label: label, breakTo: after})
	for i, cc := range clauses {
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fellThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(blocks) {
					b.edge(b.cur, blocks[i+1])
					fellThrough = true
				}
				continue
			}
			b.stmt(st)
		}
		if !fellThrough {
			b.edge(b.cur, after)
		}
	}
	b.pop()
	if !hasDefault {
		b.edge(dispatch, after)
	}
	b.cur = after
}
