// Command fusionlint runs the simulator's determinism and
// protocol-discipline analyzers (internal/lint) over the module:
//
//	fusionlint ./...             # whole module
//	fusionlint ./internal/mesi   # one package
//	fusionlint -waivers ./...    # audit every //lint: suppression
//
// It prints one "file:line: [analyzer] message" per finding and exits 1 if
// any finding survives waivers, 2 on load errors. -waivers switches to
// audit mode: one "file:line: [analyzer] reason" line per //lint:
// directive in scope, then the count on stderr (exit 0 — waiver debt is
// reviewed, not failed). Built on stdlib go/parser + go/types only: no go
// command invocation, no x/tools.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fusion/internal/lint"
)

func main() {
	verbose := flag.Bool("v", false, "list packages as they are checked")
	waivers := flag.Bool("waivers", false, "audit mode: list every //lint: waiver instead of running analyzers")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fusionlint [-v] [-waivers] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Analyzers:\n")
		for _, an := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s (waive: //lint:%s <reason>)\n",
				an.Name, an.Doc, an.Directive)
		}
	}
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	mod, err := lint.FindModule(cwd)
	if err != nil {
		fatal(err)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := expand(mod, cwd, args)
	if err != nil {
		fatal(err)
	}

	loader := lint.NewLoader(mod)
	var pkgs []*lint.Package
	loadErrs := 0
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusionlint: %v\n", err)
			loadErrs++
			continue
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "fusionlint: %s: %v\n", pkg.ImportPath, terr)
			loadErrs++
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "fusionlint: checking %s\n", pkg.ImportPath)
		}
		pkgs = append(pkgs, pkg)
	}
	if loadErrs > 0 {
		os.Exit(2)
	}

	if *waivers {
		audit(cwd, pkgs)
		return
	}

	findings := lint.Run(lint.Analyzers(), pkgs, mod)
	for _, f := range findings {
		fmt.Println(f.String(cwd))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fusionlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// audit implements -waivers: print "file:line: [analyzer] reason" for every
// //lint: suppression in scope, then the count on stderr.
func audit(cwd string, pkgs []*lint.Package) {
	records := lint.AuditWaivers(lint.Analyzers(), pkgs, cwd)
	for _, w := range records {
		reason := w.Reason
		if reason == "" {
			reason = "(missing justification)"
		}
		fmt.Printf("%s:%d: [%s] %s\n", w.File, w.Line, w.Analyzer, reason)
	}
	fmt.Fprintf(os.Stderr, "fusionlint: %d waiver(s)\n", len(records))
}

// expand resolves package patterns to module-local directories. "..."
// suffixes walk the tree; plain arguments name single package directories.
func expand(mod *lint.Module, cwd string, args []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, a := range args {
		if rest, ok := strings.CutSuffix(a, "/..."); ok {
			root := filepath.Join(cwd, rest)
			all, err := lint.ListPackageDirs(mod)
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				if d == root || strings.HasPrefix(d, root+string(filepath.Separator)) {
					add(d)
				}
			}
			continue
		}
		if filepath.IsAbs(a) {
			add(filepath.Clean(a))
		} else {
			add(filepath.Join(cwd, a))
		}
	}
	return dirs, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fusionlint: %v\n", err)
	os.Exit(2)
}
