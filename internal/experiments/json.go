package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// Data returns the named experiment's typed rows for programmatic use.
// Table 3 returns a struct with both its row list and the per-benchmark
// cache/compute ratios.
func (r *Runner) Data(name string) (any, error) {
	a := artifactNamed(name)
	if a == nil {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return a.data(r)
}

// PrintJSON writes the named experiment (or, for "all", an object keyed by
// experiment name) as indented JSON.
func (r *Runner) PrintJSON(w io.Writer, name string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if name != "all" {
		if err := r.Prefetch(name); err != nil {
			return err
		}
		data, err := r.Data(name)
		if err != nil {
			return err
		}
		return enc.Encode(data)
	}
	if err := r.prefetchAll(); err != nil {
		return err
	}
	out := make(map[string]any)
	for _, a := range artifacts {
		data, err := a.data(r)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		out[a.Name] = data
	}
	return enc.Encode(out)
}
