package systems

import (
	"sync/atomic"
	"testing"
)

// TestForEachCallsEachIndexOnce: the pool calls fn exactly once per index
// for any worker count, including more workers than indices and none at
// all (GOMAXPROCS), and makes no call for an empty range.
func TestForEachCallsEachIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{0, 4}, {1, 1}, {5, 1}, {5, 3}, {3, 8}, {17, 0}} {
		calls := make([]atomic.Int32, c.n)
		ForEach(c.n, c.workers, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d called %d times", c.n, c.workers, i, got)
			}
		}
	}
}
