// Package golden holds the committed reference outputs fusionperf checks
// its workloads against:
//
//   - artifacts.sha256: the SHA-256 of the full artifact set, the output
//     of experiments.Runner.Print(w, "all") (what `fusionbench` prints);
//   - cells.json: a result digest for every paper cell the *-cells
//     workloads run, keyed by cell label ("fft/fusion", "hist/scratch/large").
//
// Regenerate both after a deliberate change to simulated results with
//
//	go test ./cmd/fusionperf -run TestGolden -update
package golden

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
)

//go:embed artifacts.sha256
var artifactsSHA string

//go:embed cells.json
var cellsJSON []byte

// ArtifactsSHA256 returns the hex SHA-256 of the full artifact set.
func ArtifactsSHA256() string { return strings.TrimSpace(artifactsSHA) }

// Cells returns the result digest of every paper cell, by label.
func Cells() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(cellsJSON, &m); err != nil {
		return nil, fmt.Errorf("golden cells.json: %w", err)
	}
	return m, nil
}
