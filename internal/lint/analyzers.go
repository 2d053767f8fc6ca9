package lint

// Analyzers returns the full suite in reporting order. Scopes: maporder,
// wallclock, rawpanic, hotmap, pooldiscipline, and enumswitch
// guard the simulation packages under internal/; globalrand, droppederr,
// and lockguard apply module-wide (a cmd that drops errors or races a
// guarded field corrupts experiments just as surely). Leaked context
// cancel funcs are go vet's lostcancel check, which make vet runs.
//
// Pooldiscipline, lockguard, and enumswitch are the v2 CFG/dataflow
// analyzers (see cfg.go): they reason about every path through a
// function, not just its AST.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		WallClock,
		GlobalRand,
		RawPanic,
		DroppedErr,
		HotMap,
		PoolDiscipline,
		LockGuard,
		EnumSwitch,
	}
}
