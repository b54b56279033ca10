package resize

import (
	"errors"
	"math/rand"
	"testing"

	"atm/internal/race"
)

// TestGreedyIntoMatchesGreedy reuses one Scratch across 200 random
// problems of varying shape and checks the allocation is identical to
// Greedy's, which solves each on a scratch of its own — buffer reuse
// must not leak state between solves.
func TestGreedyIntoMatchesGreedy(t *testing.T) {
	var sc Scratch
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(900 + seed))
		n := 1 + r.Intn(12)
		T := 1 + r.Intn(40)
		p := randomProblem(r, n, T)
		want, errW := p.Greedy()
		got, errG := p.GreedyInto(&sc)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("seed %d: err mismatch %v vs %v", seed, errW, errG)
		}
		if errW != nil {
			if !errors.Is(errG, ErrInfeasible) && !errors.Is(errG, ErrBadProblem) {
				t.Fatalf("seed %d: unexpected error kind %v", seed, errG)
			}
			continue
		}
		if got.Tickets != want.Tickets {
			t.Fatalf("seed %d: tickets %d vs %d", seed, got.Tickets, want.Tickets)
		}
		if len(got.Sizes) != len(want.Sizes) {
			t.Fatalf("seed %d: %d sizes vs %d", seed, len(got.Sizes), len(want.Sizes))
		}
		for i := range want.Sizes {
			if got.Sizes[i] != want.Sizes[i] {
				t.Fatalf("seed %d: size[%d] = %v vs %v", seed, i, got.Sizes[i], want.Sizes[i])
			}
		}
	}
}

// TestGreedyIntoEmptyProblem mirrors Greedy's empty-problem shape.
func TestGreedyIntoEmptyProblem(t *testing.T) {
	p := &Problem{Capacity: 10, Threshold: 0.6}
	var sc Scratch
	a, err := p.GreedyInto(&sc)
	if err != nil {
		t.Fatalf("GreedyInto: %v", err)
	}
	if len(a.Sizes) != 0 || a.Tickets != 0 {
		t.Fatalf("empty problem: got %v", a)
	}
}

// TestGreedyIntoAllocFree gates the scratch path at zero steady-state
// allocations.
func TestGreedyIntoAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	r := rand.New(rand.NewSource(77))
	p := randomProblem(r, 10, 48)
	var sc Scratch
	if _, err := p.GreedyInto(&sc); err != nil {
		t.Fatalf("warm-up solve: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.GreedyInto(&sc); err != nil {
			t.Fatalf("GreedyInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("GreedyInto allocates %v times per solve, want 0", allocs)
	}
}
