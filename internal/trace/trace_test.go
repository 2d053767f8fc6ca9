package trace

import (
	"testing"

	"fusion/internal/mem"
)

func inv(fn string, axc int, loads, stores []mem.VAddr) Invocation {
	return Invocation{
		Function:   fn,
		AXC:        axc,
		Iterations: []Iteration{{Loads: loads, Stores: stores, IntOps: 4, FPOps: 1}},
	}
}

func TestLinesDedupAndWritten(t *testing.T) {
	i := inv("f", 0, []mem.VAddr{0x00, 0x10, 0x40}, []mem.VAddr{0x80, 0x84})
	lines, written := i.Lines()
	if len(lines) != 3 { // 0x00/0x10 share a line; 0x80/0x84 share a line
		t.Fatalf("lines = %v, want 3", lines)
	}
	if !written[0x80] || written[0x00] {
		t.Fatalf("written = %v", written)
	}
}

func TestOpsCounts(t *testing.T) {
	i := Invocation{Iterations: []Iteration{
		{Loads: make([]mem.VAddr, 3), Stores: make([]mem.VAddr, 1), IntOps: 5, FPOps: 2},
		{Loads: make([]mem.VAddr, 2), IntOps: 1},
	}}
	ii, fp, ld, st := i.Ops()
	if ii != 6 || fp != 2 || ld != 5 || st != 1 {
		t.Fatalf("Ops = %d/%d/%d/%d", ii, fp, ld, st)
	}
}

func TestProgramNumAXCs(t *testing.T) {
	p := Program{Phases: []Phase{
		{Kind: PhaseAccel, Inv: inv("a", 0, nil, nil)},
		{Kind: PhaseAccel, Inv: inv("b", 2, nil, nil)},
		{Kind: PhaseHost, Inv: inv("c", 0, nil, nil)},
	}}
	if p.NumAXCs() != 3 {
		t.Fatalf("NumAXCs = %d, want 3", p.NumAXCs())
	}
}

func TestWorkingSet(t *testing.T) {
	p := Program{Phases: []Phase{
		{Inv: inv("a", 0, []mem.VAddr{0x000, 0x040}, nil)},
		{Inv: inv("b", 1, []mem.VAddr{0x040, 0x080}, nil)},
	}}
	lines, bytes := p.WorkingSet()
	if lines != 3 || bytes != 3*64 {
		t.Fatalf("WorkingSet = %d lines / %d bytes", lines, bytes)
	}
	p.Seal()
	p.Phases = nil // a sealed program answers from its memo
	if lines, bytes := p.WorkingSet(); lines != 3 || bytes != 3*64 {
		t.Fatalf("sealed WorkingSet = %d lines / %d bytes", lines, bytes)
	}
}

func TestSharedLines(t *testing.T) {
	// b reads everything a reads; a also touches a private line.
	p := Program{Phases: []Phase{
		{Inv: inv("a", 0, []mem.VAddr{0x000, 0x040}, nil)},
		{Inv: inv("b", 1, []mem.VAddr{0x040}, nil)},
	}}
	shr := p.SharedLines()
	if shr["b"] != 100 {
		t.Fatalf("b %%SHR = %v, want 100", shr["b"])
	}
	if shr["a"] != 50 {
		t.Fatalf("a %%SHR = %v, want 50", shr["a"])
	}
}
