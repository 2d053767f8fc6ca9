package lint

// cfg.go builds statement-level control-flow graphs over function bodies:
// the substrate of fusionlint's path-sensitive analyzers (pooldiscipline,
// lockguard). A cfgBlock holds straight-line nodes — simple
// statements and the decomposed pieces of control statements (an if's
// condition, a switch's tag, a case clause's guard expressions) — so every
// node inside a block is body-free: walking a block never re-enters nested
// control flow. Nested function literals are likewise opaque here; each
// closure body gets its own CFG (see funcUnits).
//
// Calls that never return (panic, sim.Failf, os.Exit, log.Fatal*) end
// their block with no successors, so the paths they kill are excluded
// from "on every path to return" reasoning — a handler that Failf-s on a
// protocol violation does not owe that path a pool release.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// cfgBlock is one basic block: straight-line nodes plus successor edges.
type cfgBlock struct {
	index int
	kind  string // diagnostic label: "entry", "for.head", "case", ...
	nodes []ast.Node
	succs []*cfgBlock
}

// cfg is one function body's control-flow graph. entry is blocks[0]; exit
// is the single synthetic return target (fall-off-the-end and every
// return statement lead there). defers lists defer statements in the
// order encountered.
type cfg struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock
	defers []*ast.DeferStmt
}

// cfgFrame is one enclosing breakable construct while building: loops set
// cont, switch/select leave it nil.
type cfgFrame struct {
	label string
	brk   *cfgBlock
	cont  *cfgBlock
}

type cfgBuilder struct {
	c       *cfg
	cur     *cfgBlock // nil after a jump: the next statement is unreachable
	labels  map[string]*cfgBlock
	frames  []cfgFrame
	fallTo  *cfgBlock // fallthrough target while building a switch clause
	pending string    // label waiting to be claimed by a loop/switch/select
	info    *types.Info
	mod     *Module
}

// buildCFG constructs the CFG of one function body. info and mod feed the
// never-returns call classifier; both may be nil (then only builtin panic
// terminates).
func buildCFG(body *ast.BlockStmt, info *types.Info, mod *Module) *cfg {
	b := &cfgBuilder{
		c:      &cfg{},
		labels: map[string]*cfgBlock{},
		info:   info,
		mod:    mod,
	}
	b.c.entry = b.newBlock("entry")
	b.c.exit = b.newBlock("exit")
	b.cur = b.c.entry
	b.stmtList(body.List)
	b.jumpTo(b.c.exit)
	return b.c
}

func (b *cfgBuilder) newBlock(kind string) *cfgBlock {
	blk := &cfgBlock{index: len(b.c.blocks), kind: kind}
	b.c.blocks = append(b.c.blocks, blk)
	return blk
}

// current returns the block under construction, opening a fresh
// predecessor-less block for statically unreachable code (which the
// dataflow engine then never visits).
func (b *cfgBuilder) current() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.current()
	blk.nodes = append(blk.nodes, n)
}

func edge(from, to *cfgBlock) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// jumpTo ends the current block with an edge to `to`; building continues
// unreachable until the next join point re-anchors cur.
func (b *cfgBuilder) jumpTo(to *cfgBlock) {
	if b.cur != nil {
		edge(b.cur, to)
	}
	b.cur = nil
}

// enter adds an edge into `to` and continues building there (loop heads,
// label targets: reachable both by fallthrough and by jump).
func (b *cfgBuilder) enter(to *cfgBlock) {
	if b.cur != nil {
		edge(b.cur, to)
	}
	b.cur = to
}

func (b *cfgBuilder) labelBlock(name string) *cfgBlock {
	blk, ok := b.labels[name]
	if !ok {
		blk = b.newBlock("label." + name)
		b.labels[name] = blk
	}
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.pending
	b.pending = ""
	switch s := s.(type) {
	case *ast.LabeledStmt:
		b.enter(b.labelBlock(s.Label.Name))
		b.pending = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.terminates(call) {
			b.cur = nil
		}

	case *ast.DeferStmt:
		b.add(s)
		b.c.defers = append(b.c.defers, s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jumpTo(b.c.exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt:
		b.switchStmt(s, label)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	default:
		// Assign, Decl, IncDec, Send, Go, Empty: straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if name == "" || f.label == name {
				b.jumpTo(f.brk)
				return
			}
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.cont != nil && (name == "" || f.label == name) {
				b.jumpTo(f.cont)
				return
			}
		}
	case token.GOTO:
		if name != "" {
			b.jumpTo(b.labelBlock(name))
			return
		}
	case token.FALLTHROUGH:
		if b.fallTo != nil {
			b.jumpTo(b.fallTo)
			return
		}
	}
	b.cur = nil // malformed branch: treat as a dead end
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.current()
	join := b.newBlock("if.join")
	then := b.newBlock("if.then")
	edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	b.jumpTo(join)
	if s.Else != nil {
		els := b.newBlock("if.else")
		edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.jumpTo(join)
	} else {
		edge(cond, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.enter(head)
	if s.Cond != nil {
		b.add(s.Cond)
	}
	body := b.newBlock("for.body")
	join := b.newBlock("for.join")
	edge(head, body)
	if s.Cond != nil {
		edge(head, join) // a condition-less for only exits via break/return
	}
	cont := head
	var post *cfgBlock
	if s.Post != nil {
		post = b.newBlock("for.post")
		cont = post
	}
	b.frames = append(b.frames, cfgFrame{label: label, brk: join, cont: cont})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.jumpTo(cont)
	if post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.jumpTo(head)
	}
	b.cur = join
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X) // the ranged operand is evaluated once, before the loop
	head := b.newBlock("range.head")
	b.enter(head)
	// Key/value idents are (re)bound at the top of every iteration; their
	// bare appearance here lets per-variable analyses reset their state on
	// the back edge.
	b.add(s.Key)
	b.add(s.Value)
	body := b.newBlock("range.body")
	join := b.newBlock("range.join")
	edge(head, body)
	edge(head, join)
	b.frames = append(b.frames, cfgFrame{label: label, brk: join, cont: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.jumpTo(head)
	b.cur = join
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	entry := b.current()
	join := b.newBlock("switch.join")
	b.frames = append(b.frames, cfgFrame{label: label, brk: join})
	clauses := make([]*ast.CaseClause, 0, len(s.Body.List))
	for _, cs := range s.Body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("case")
		edge(entry, blocks[i])
		for _, e := range cc.List {
			blocks[i].nodes = append(blocks[i].nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		edge(entry, join)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		savedFall := b.fallTo
		b.fallTo = nil
		if i+1 < len(blocks) {
			b.fallTo = blocks[i+1]
		}
		b.stmtList(cc.Body)
		b.fallTo = savedFall
		b.jumpTo(join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Assign)
	entry := b.current()
	join := b.newBlock("typeswitch.join")
	b.frames = append(b.frames, cfgFrame{label: label, brk: join})
	hasDefault := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock("typecase")
		edge(entry, blk)
		b.cur = blk
		b.stmtList(cc.Body)
		b.jumpTo(join)
	}
	if !hasDefault {
		edge(entry, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	entry := b.current()
	join := b.newBlock("select.join")
	b.frames = append(b.frames, cfgFrame{label: label, brk: join})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("comm")
		edge(entry, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jumpTo(join)
	}
	// No entry->join edge: a select without a default blocks until some
	// case fires, and `select {}` blocks forever (entry keeps no exit).
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

// terminates reports whether a call never returns: the panic builtin,
// sim.Failf (raises a *ProtocolError panic), os.Exit, runtime.Goexit, and
// the log package's Fatal family (function or *log.Logger method).
func (b *cfgBuilder) terminates(call *ast.CallExpr) bool {
	if b.info == nil {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return builtinNamed(b.info, fn, "panic")
	case *ast.SelectorExpr:
		if path, name, ok := pkgSelector(b.info, fn); ok {
			switch {
			case path == "os" && name == "Exit",
				path == "runtime" && name == "Goexit",
				path == "log" && strings.HasPrefix(name, "Fatal"):
				return true
			case b.mod != nil && path == b.mod.Path+"/internal/sim" && name == "Failf":
				return true
			}
			return false
		}
		if sel := b.info.Selections[fn]; sel != nil && sel.Kind() == types.MethodVal &&
			strings.HasPrefix(fn.Sel.Name, "Fatal") {
			recv := sel.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok &&
				named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "log" {
				return true
			}
		}
	}
	return false
}

// debugString renders the CFG for tests: one line per block with its
// nodes' source text and successor indices.
func (c *cfg) debugString(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range c.blocks {
		fmt.Fprintf(&sb, "b%d %s:", blk.index, blk.kind)
		for _, n := range blk.nodes {
			var buf bytes.Buffer
			printer.Fprint(&buf, fset, n)
			text := strings.Join(strings.Fields(buf.String()), " ")
			fmt.Fprintf(&sb, " {%s}", text)
		}
		if len(blk.succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.succs {
				fmt.Fprintf(&sb, " b%d", s.index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
