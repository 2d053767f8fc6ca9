package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fusion/internal/systems"
	"fusion/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite bench/golden from the current simulator")

// TestGolden rewrites the committed reference outputs: the artifact set's
// SHA-256 and every paper cell's result digest. It runs only with -update,
// after a deliberate change to simulated results; the workloads check the
// files on every run.
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite bench/golden")
	}
	dir := filepath.Join("..", "..", "golden")
	cells := map[string]string{}
	for _, spec := range []cellsSpec{fusionCellsSpec(), scratchCellsSpec()} {
		for _, name := range spec.benches {
			b := workloads.Get(name)
			for _, k := range spec.kinds {
				for _, large := range spec.large {
					cfg := systems.DefaultConfig(k)
					cfg.Large = large
					res, err := systems.RunCtx(context.Background(), b, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cells[cellLabel(name, cfg)] = resultDigest(res)
				}
			}
		}
	}
	b, err := json.MarshalIndent(cells, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cells.json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := newRunner().Print(h, "all"); err != nil {
		t.Fatal(err)
	}
	sum := hex.EncodeToString(h.Sum(nil)) + "\n"
	if err := os.WriteFile(filepath.Join(dir, "artifacts.sha256"), []byte(sum), 0o644); err != nil {
		t.Fatal(err)
	}
}
