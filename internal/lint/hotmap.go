package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotMethodNames are the per-cycle/per-message entry points of simulation
// components. Anything these bodies do runs millions of times per
// experiment, so a map hash there shows up in CPU and allocation profiles.
var hotMethodNames = map[string]bool{
	"Tick":        true,
	"Deliver":     true,
	"Handle":      true,
	"HandleTile":  true,
	"HandleMESI":  true,
	"HandleEvent": true,
	"Access":      true,
	"AccessTimed": true,
	"Send":        true,
}

// hotFuncNames are the fusiond job-execution bodies: the scheduler worker
// loop, its panic-fenced run wrapper, and the cell builder each enclose an
// entire simulation — and BuildCell is a free function, which the
// receiver-method match above would never see.
var hotFuncNames = map[string]bool{
	"worker":    true,
	"safeRun":   true,
	"BuildCell": true,
}

// HotMap forbids runtime-map operations — index expressions, range loops,
// delete calls, and any method of stats.Set, whose counters live in a map
// keyed by name — inside hot function bodies. Every map touch on a
// per-cycle or per-message path pays interface hashing and, for stale
// tables, reallocation; the dense replacements (per-(set,way) slot arrays
// keyed by cache.Array.SlotOf, MSHR-slot-parallel slices, occupancy
// bitmaps, internal/flat.Map for genuinely sparse keys, and a
// *stats.Counter interned at construction) cost an index, a bitmap scan or
// a pointer dereference. Hot bodies are the component entry-point methods
// (hotMethodNames) plus the fusiond job-execution functions (hotFuncNames,
// matched with or without a receiver), with closures declared inside them
// included: they are typically scheduled per event and run just as often.
var HotMap = &Analyzer{
	Name:      "hotmap",
	Directive: "hotmap",
	Doc:       "runtime-map operation or stats.Set call in a per-cycle hot path",
	Scope:     internalScope,
	Run:       runHotMap,
}

func runHotMap(p *Pass) {
	statsSet := p.Module.Path + "/internal/stats.Set"
	info := p.Pkg.Info
	// isMap reports whether e evaluates to a runtime map. Checking the
	// operand's type also keeps generic instantiations (New[int] parses as
	// an IndexExpr too) out of the net.
	isMap := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		_, is := tv.Type.Underlying().(*types.Map)
		return is
	}
	// isStatsSet reports whether sel selects a method of stats.Set.
	isStatsSet := func(sel *ast.SelectorExpr) bool {
		s := info.Selections[sel]
		return s != nil && strings.TrimPrefix(types.TypeString(s.Recv(), nil), "*") == statsSet
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			hot := (fn.Recv != nil && hotMethodNames[fn.Name.Name]) || hotFuncNames[fn.Name.Name]
			if !hot {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.IndexExpr:
					if isMap(x.X) {
						p.Reportf(x.Pos(),
							"map index in hot function %s; key the state by dense slot (cache.Array.SlotOf, MSHR slots) or use internal/flat",
							fn.Name.Name)
					}
				case *ast.RangeStmt:
					if isMap(x.X) {
						p.Reportf(x.Pos(),
							"map range in hot function %s; walk an occupancy bitmap or a dense slice instead",
							fn.Name.Name)
					}
				case *ast.CallExpr:
					if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" {
						if obj, ok := info.Uses[id].(*types.Builtin); ok && obj.Name() == "delete" {
							p.Reportf(x.Pos(),
								"map delete in hot function %s; clear an occupancy bit or swap-delete a dense list instead",
								fn.Name.Name)
						}
					}
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && isStatsSet(sel) {
						p.Reportf(x.Pos(),
							"stats.Set.%s in hot function %s; intern a *stats.Counter at construction and increment the handle",
							sel.Sel.Name, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
}
