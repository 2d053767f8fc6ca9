package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 (ten samples beyond)", v, ok)
	}
	if _, ok := percentile(xs, 95); ok {
		t.Error("p95 of 100 samples has only five beyond it; want it withheld")
	}
	if v, ok := percentile([]float64{3, 1, 2}, 50); !ok || v != 2 {
		t.Errorf("p50 of three samples = %v, %v; want 2", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule a metric's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 5}, 0, 6},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{2, 7.5, 1.25, 9, 4}, 1.625, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 5.5/5.5 {
		t.Errorf("relSpread = %v, want 1", got)
	}
}
