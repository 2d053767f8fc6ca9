package experiments

// ASCII renderings of Figures 6a and 6b: the same stacked-bar and bar
// charts the paper prints, drawn in text so `fusionbench` output can be
// read the way the paper's figures are.

import (
	"fmt"
	"io"
	"strings"
)

// barWidth is the width of a 1.0-normalized bar.
const barWidth = 44

// printChart6b renders Figure 6b as horizontal bars (SCRATCH = full width).
func printChart6b(w io.Writer, rows []Fig6bRow) {
	fmt.Fprintln(w, "Figure 6b (chart): cycles normalized to SCRATCH — shorter is faster")
	fmt.Fprintln(w)
	for _, row := range rows {
		n := int(row.Normalized * barWidth)
		overflow := ""
		if n > 2*barWidth {
			n = 2 * barWidth
			overflow = ">"
		}
		if n < 1 {
			n = 1
		}
		label := ""
		if row.System == "SCRATCH" {
			label = row.Benchmark
		}
		fmt.Fprintf(w, "%-7s %-9s |%s%s %.3f\n",
			label, row.System, strings.Repeat("█", n), overflow, row.Normalized)
		if row.System == "FUSION" {
			fmt.Fprintln(w)
		}
	}
}

// Component letters for the stacked Figure 6a bars.
var fig6aStack = []struct {
	name string
	char byte
	get  func(Fig6aRow) float64
}{
	{"L0X/scratchpad", 'L', func(r Fig6aRow) float64 { return r.Local }},
	{"shared L1X", 'X', func(r Fig6aRow) float64 { return r.L1X }},
	{"tile links", 't', func(r Fig6aRow) float64 { return r.TileNet }},
	{"host links", 'H', func(r Fig6aRow) float64 { return r.HostNet }},
	{"L2/LLC", '2', func(r Fig6aRow) float64 { return r.L2 }},
	{"VM (TLB/RMAP)", 'v', func(r Fig6aRow) float64 { return r.VM }},
	{"compute", 'c', func(r Fig6aRow) float64 { return r.Compute }},
}

// printChart6a renders Figure 6a as stacked horizontal bars, normalized to
// each benchmark's SCRATCH total.
func printChart6a(w io.Writer, rows []Fig6aRow) {
	fmt.Fprintln(w, "Figure 6a (chart): on-chip dynamic energy, stacked by component,")
	fmt.Fprintln(w, "normalized to SCRATCH. Legend:")
	for _, c := range fig6aStack {
		fmt.Fprintf(w, "   %c = %s\n", c.char, c.name)
	}
	fmt.Fprintln(w)

	// Base: SCRATCH on-chip total per benchmark.
	base := map[string]float64{}
	for _, row := range rows {
		if row.System == "SCRATCH" {
			total := 0.0
			for _, c := range fig6aStack {
				total += c.get(row)
			}
			base[row.Benchmark] = total
		}
	}
	for _, row := range rows {
		var bar strings.Builder
		for _, c := range fig6aStack {
			frac := c.get(row) / base[row.Benchmark]
			n := int(frac * barWidth)
			if c.get(row) > 0 && n == 0 {
				n = 1
			}
			if bar.Len()+n > 2*barWidth {
				n = 2*barWidth - bar.Len()
			}
			if n > 0 {
				bar.WriteString(strings.Repeat(string(c.char), n))
			}
		}
		label := ""
		if row.System == "SCRATCH" {
			label = row.Benchmark
		}
		fmt.Fprintf(w, "%-7s %-9s |%s %.3f\n", label, row.System, bar.String(), row.Normalized)
		if row.System == "FUSION" {
			fmt.Fprintln(w)
		}
	}
}
