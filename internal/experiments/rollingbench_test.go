package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// TestRollingBench runs the rolling reuse comparison end to end and
// checks the acceptance bounds: on the stationary trace the
// incremental reuse run must stay within the ceil(steps/MaxAge) search
// budget while covering every step (searches + refits == steps), and
// the seeded integer results must equal the checked-in record — the
// fidelity `make benchguard` gates (the incremental refit's 1e-9
// agreement with the reference refit is core's
// TestStepIntoIncrementalMatchesReference).
func TestRollingBench(t *testing.T) {
	r, err := RollingBench(Options{Reps: 2})
	if err != nil {
		t.Fatalf("RollingBench: %v", err)
	}
	if r.Steps != 20 {
		t.Fatalf("steps = %d, want 20", r.Steps)
	}
	if r.Reps != 2 {
		t.Errorf("reps = %d, want 2", r.Reps)
	}
	if r.BaselineSearches != r.Steps {
		t.Errorf("baseline searches = %d, want one per step (%d)", r.BaselineSearches, r.Steps)
	}
	if !r.WithinBudget {
		t.Errorf("reuse searches = %d over budget %d", r.ReuseSearches, r.ReuseBudget)
	}
	if r.ReuseSearches+r.ReuseRefits != r.Steps {
		t.Errorf("searches %d + refits %d != steps %d", r.ReuseSearches, r.ReuseRefits, r.Steps)
	}
	if r.ReuseSearches < 1 {
		t.Error("reuse never searched (cold start must research)")
	}
	data, err := os.ReadFile("../../BENCH_rolling.json")
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	var rec RollingBenchResult
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record: %v", err)
	}
	if r.TicketsBefore != rec.TicketsBefore || r.BaselineTickets != rec.BaselineTickets || r.ReuseTickets != rec.ReuseTickets {
		t.Errorf("tickets before/baseline/reuse = %d/%d/%d, record has %d/%d/%d",
			r.TicketsBefore, r.BaselineTickets, r.ReuseTickets, rec.TicketsBefore, rec.BaselineTickets, rec.ReuseTickets)
	}
	if tbl := r.Render(); len(tbl.Rows) != 2 {
		t.Errorf("render rows = %d", len(tbl.Rows))
	}
}
