package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// programsOf serializes the random programs a *-cells run generates.
func programsOf(t *testing.T, seed int64) string {
	inst, err := setupCells(cellsSpec{kinds: []systems.Kind{systems.Fusion}, large: []bool{false}, random: 3}, seed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, c := range inst.cells {
		if err := workloads.SaveJSON(&b, c.prog.bench); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func TestRandomProgramsFollowTheSeed(t *testing.T) {
	a, again, other := programsOf(t, 1), programsOf(t, 1), programsOf(t, 2)
	if a != again {
		t.Error("the same seed generated different random programs")
	}
	if a == other {
		t.Error("seeds 1 and 2 generated the same random programs")
	}
}

func fullSpec() fusiondSpec {
	return fusiondSpec{benches: workloads.Names(), systems: systems.KindNames(), roundRequests: defaultRoundRequests}
}

// streamOf renders two rounds of both clients' requests.
func streamOf(seed int64) string {
	var b strings.Builder
	for _, round := range schedule(fullSpec(), seed)[:2] {
		for _, reqs := range round {
			for _, rq := range reqs {
				fmt.Fprint(&b, rq.cold)
				for _, u := range rq.cells {
					b.WriteString(" " + u.hash[:8])
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

func TestRequestStreamFollowsTheSeed(t *testing.T) {
	a, again, other := streamOf(1), streamOf(1), streamOf(2)
	if a != again {
		t.Error("the same seed generated different request streams")
	}
	if a == other {
		t.Error("seeds 1 and 2 generated the same request stream")
	}
}

// TestRequestStreamShape checks the properties the fusiond-mixed metrics
// rest on: each round requests every pair cold once with a knob
// combination not used before, 8% of requests are cold, grids hold 4-16
// cells, and every read names only specs already answered.
func TestRequestStreamShape(t *testing.T) {
	rounds := universe(fullSpec(), 7)
	if len(rounds) != len(knobs) {
		t.Fatalf("%d rounds, want %d", len(rounds), len(knobs))
	}
	seenHash := map[string]bool{}
	for _, round := range rounds {
		pairs := map[string]bool{}
		for _, u := range round {
			pairs[u.spec.Bench+"/"+u.spec.System] = true
			if seenHash[u.hash] {
				t.Fatalf("spec %s requested cold twice", u.spec.Key())
			}
			seenHash[u.hash] = true
		}
		if len(round) != 42 || len(pairs) != 42 {
			t.Fatalf("round has %d specs over %d pairs, want 42 of 42", len(round), len(pairs))
		}
	}
	answered := map[string]bool{}
	cold, total := 0, 0
	for r, plans := range schedule(fullSpec(), 7) {
		for c, reqs := range plans {
			mine := map[string]bool{}
			for k := range answered {
				mine[k] = true
			}
			for i, rq := range reqs {
				total++
				if rq.cold {
					cold++
					mine[rq.cells[0].hash] = true
					continue
				}
				if r == 0 && i == 0 {
					t.Fatal("the first request of the first round is a read")
				}
				if n := len(rq.cells); n < gridMin || n > gridMax {
					t.Fatalf("grid of %d cells", n)
				}
				for _, u := range rq.cells {
					if !mine[u.hash] {
						t.Fatalf("round %d client %d reads %s before it was answered", r, c, u.spec.Key())
					}
				}
			}
		}
		for _, u := range rounds[r] {
			answered[u.hash] = true
		}
	}
	if share := float64(cold) / float64(total); share < 0.079 || share > 0.081 {
		t.Errorf("cold share %.4f, want 0.08", share)
	}
}
