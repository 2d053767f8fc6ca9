package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PoolDiscipline enforces the free-list ownership protocol that PR 4's
// allocation diet rests on: a message drawn from a pool
// (mesi.MsgPool.Get, acc.TileMsgPool.Get) is owned by the acquiring
// function until it either releases it exactly once (Put) or transfers
// ownership — sends it on a fabric, parks it in a field, appends it to a
// free list, returns it, or captures it in a closure. The analyzer walks
// every path of the function's CFG and reports:
//
//   - a leak: some path reaches return with the value still owned
//     (the runtime counterpart is a message that never re-enters any
//     pool — unbounded allocation on the hot path);
//   - a static double release: a second release is reachable after the
//     first (the runtime counterpart is the pool's 0xFD-poison guard
//     tripping mid-experiment — this check moves it to lint time).
//
// Paths that end in panic/sim.Failf are exempt: a protocol failure aborts
// the simulation, and its diagnostics may legitimately abandon messages.
var PoolDiscipline = &Analyzer{
	Name:      "pooldiscipline",
	Directive: "pooldiscipline",
	Doc:       "pooled value leaked or double-released on some path",
	Scope:     internalScope,
	Run:       runPoolDiscipline,
}

// Ownership states. A variable's dataflow fact is the set of states it may
// be in at a program point (a may-analysis: the union over paths).
const (
	poolOwned    uint8 = 1 << iota // acquired, release still owed here
	poolReleased                   // released; a second release is a bug
	poolEscaped                    // ownership transferred elsewhere
)

// poolFact is one tracked variable's fact: its possible states and the
// acquisition site findings anchor to.
type poolFact struct {
	bits uint8
	pos  token.Pos
	name string
}

type poolState map[*types.Var]poolFact

func clonePoolState(s poolState) poolState {
	out := make(poolState, len(s))
	for k, v := range s { //lint:ordered clone of a dataflow fact map; no output depends on order
		out[k] = v
	}
	return out
}

// mergePoolInto unions src into dst (may-analysis) and reports change.
func mergePoolInto(dst, src poolState) bool {
	changed := false
	for k, sv := range src { //lint:ordered commutative union into a map; no output depends on order
		dv, ok := dst[k]
		if !ok {
			dst[k] = sv
			changed = true
			continue
		}
		merged := dv.bits | sv.bits
		if merged != dv.bits {
			dv.bits = merged
			dst[k] = dv
			changed = true
		}
	}
	return changed
}

func runPoolDiscipline(p *Pass) {
	a := &poolAnalysis{pass: p, info: p.Pkg.Info}
	for _, f := range p.Pkg.Files {
		for _, fn := range funcUnits(f) {
			a.checkFunc(fn)
		}
	}
}

type poolAnalysis struct {
	pass *Pass
	info *types.Info
}

// isAcquire reports whether call draws a pooled message: Get on a
// message pool.
func (a *poolAnalysis) isAcquire(call *ast.CallExpr) bool {
	return a.isPoolMethod(call, "Get")
}

// isRelease reports whether call returns a message to its free list: Put
// on a message pool. The released operand is the call's single argument.
func (a *poolAnalysis) isRelease(call *ast.CallExpr) bool {
	return len(call.Args) == 1 && a.isPoolMethod(call, "Put")
}

// isPoolMethod reports whether call is the method name on one of the
// module's message pools.
func (a *poolAnalysis) isPoolMethod(call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s := a.info.Selections[sel]
	return s != nil && s.Kind() == types.MethodVal && a.isPoolType(s.Recv())
}

// isPoolType reports whether t is one of the module's message pools.
func (a *poolAnalysis) isPoolType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	mod := a.pass.Module.Path
	return (path == mod+"/internal/mesi" && name == "MsgPool") ||
		(path == mod+"/internal/acc" && name == "TileMsgPool")
}

func (a *poolAnalysis) checkFunc(fn funcUnit) {
	c := buildCFG(fn.body, a.info, a.pass.Module)
	transfer := func(blk *cfgBlock, st poolState) poolState {
		for _, n := range blk.nodes {
			a.node(st, n, false)
		}
		return st
	}
	in := forwardFlow(c, poolState{}, clonePoolState, mergePoolInto, transfer)

	// Reporting pass: replay each reachable block once from its fixed
	// in-state with diagnostics armed.
	for _, blk := range c.blocks {
		st, ok := in[blk]
		if !ok {
			continue
		}
		st = clonePoolState(st)
		for _, n := range blk.nodes {
			a.node(st, n, true)
		}
	}

	// Leak check: anything still possibly owned where exit's in-state
	// lands never reached a release on that path.
	exitIn, ok := in[c.exit]
	if !ok {
		return
	}
	var leaks []poolFact
	for _, fact := range exitIn { //lint:ordered findings are collected then sorted by position below
		if fact.bits&poolOwned != 0 {
			leaks = append(leaks, fact)
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, fact := range leaks {
		a.pass.Reportf(fact.pos,
			"pooled value in %s is not released on every path: a return is reachable while it is still owned (leak); release it, transfer ownership, or waive with //lint:pooldiscipline <reason>", fact.name)
	}
}

// node applies one straight-line node to the state. With report set it
// also emits diagnostics (the reporting pass); the fixpoint runs silent.
func (a *poolAnalysis) node(st poolState, n ast.Node, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(st, n, report)
	case *ast.DeferStmt:
		a.callOrScan(st, n.Call, report)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			a.callOrScan(st, call, report)
			return
		}
		a.scan(st, n.X, report)
	default:
		a.scan(st, n, report)
	}
}

// assign handles acquires (x := pool.Get()) and overwrite leaks; all other
// operand uses fall through to scan.
func (a *poolAnalysis) assign(st poolState, s *ast.AssignStmt, report bool) {
	// 1:1 assignments may bind acquires to their targets.
	acquired := map[int]bool{}
	if len(s.Lhs) == len(s.Rhs) {
		for i, rhs := range s.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !a.isAcquire(call) {
				continue
			}
			id, ok := s.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			v := a.localVar(id)
			if v == nil {
				continue
			}
			if fact, tracked := st[v]; tracked && fact.bits&poolOwned != 0 && report {
				a.pass.Reportf(call.Pos(),
					"pooled value in %s may still be owned when it is overwritten by a new acquisition (leak)", id.Name)
			}
			st[v] = poolFact{bits: poolOwned, pos: call.Pos(), name: id.Name}
			acquired[i] = true
		}
	}
	for i, rhs := range s.Rhs {
		if !acquired[i] {
			a.scan(st, rhs, report)
		}
	}
	for i, lhs := range s.Lhs {
		if acquired[i] {
			continue
		}
		if id, ok := lhs.(*ast.Ident); ok {
			// A plain overwrite unbinds the variable from the pooled value.
			if v := a.localVar(id); v != nil {
				if fact, tracked := st[v]; tracked {
					if fact.bits&poolOwned != 0 && report {
						a.pass.Reportf(id.Pos(),
							"pooled value in %s may still be owned when it is overwritten (leak)", id.Name)
					}
					delete(st, v)
				}
			}
			continue
		}
		// m.Field = v / arr[i] = v: the written sub-expressions are uses.
		a.scan(st, lhs, report)
	}
}

// callOrScan handles a statement-level call: releases transition state;
// everything else scans arguments for escapes.
func (a *poolAnalysis) callOrScan(st poolState, call *ast.CallExpr, report bool) {
	if a.isRelease(call) {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if v := a.localVar(id); v != nil {
				fact, tracked := st[v]
				if tracked && fact.bits&poolReleased != 0 && report {
					a.pass.Reportf(call.Pos(),
						"%s may already have been released on a path reaching this second release (static double release)", id.Name)
				}
				if !tracked {
					fact.pos = call.Pos()
				}
				fact.bits = poolReleased
				st[v] = fact
				// The receiver chain (c.pool) is not a use of the operand.
				return
			}
		}
	}
	a.scan(st, call, report)
}

// scan walks an expression (or whole statement) for uses of tracked
// variables. Neutral contexts — field/method selection through the value,
// nil comparisons — leave ownership in place; any other appearance
// transfers it (call argument, struct/slice element, return value, channel
// send, address-of, closure capture).
func (a *poolAnalysis) scan(st poolState, n ast.Node, report bool) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.Ident:
		if v := a.localVar(n); v != nil {
			if fact, tracked := st[v]; tracked {
				fact.bits = poolEscaped
				st[v] = fact
			}
		}
	case *ast.SelectorExpr:
		// m.Field / m.Method: dereference through the tracked pointer, not
		// a transfer. Deeper receivers still scan.
		if _, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			return
		}
		a.scan(st, n.X, report)
	case *ast.BinaryExpr:
		if n.Op == token.EQL || n.Op == token.NEQ {
			// Comparisons (m == nil) read the pointer without transferring
			// ownership; only scan non-ident operands.
			if _, ok := ast.Unparen(n.X).(*ast.Ident); !ok {
				a.scan(st, n.X, report)
			}
			if _, ok := ast.Unparen(n.Y).(*ast.Ident); !ok {
				a.scan(st, n.Y, report)
			}
			return
		}
		a.scan(st, n.X, report)
		a.scan(st, n.Y, report)
	case *ast.CallExpr:
		if a.isRelease(n) {
			a.callOrScan(st, n, report)
			return
		}
		a.scan(st, n.Fun, report)
		for _, arg := range n.Args {
			a.scan(st, arg, report)
		}
	case *ast.FuncLit:
		// Closure capture: any reference inside the literal escapes the
		// value (the closure body is analyzed as its own unit).
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v := a.localVar(id); v != nil {
					if fact, tracked := st[v]; tracked {
						fact.bits = poolEscaped
						st[v] = fact
					}
				}
			}
			return true
		})
	default:
		for _, child := range childNodes(n) {
			a.scan(st, child, report)
		}
	}
}

// localVar resolves an identifier to the variable it names, or nil.
func (a *poolAnalysis) localVar(id *ast.Ident) *types.Var {
	obj := a.info.Uses[id]
	if obj == nil {
		obj = a.info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// childNodes returns a node's direct children, for generic recursion.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			out = append(out, m)
		}
		return false
	})
	return out
}
