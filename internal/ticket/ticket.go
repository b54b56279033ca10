// Package ticket models usage-ticket issuing: a data center monitoring
// system samples each VM's resource usage once per ticketing window
// (15 minutes in the paper) and issues a ticket whenever usage exceeds
// a threshold fraction of the allocated capacity (60/70/80% are the
// production values the paper studies). The package counts tickets,
// summarizes their distribution across co-located VMs, and identifies
// the "culprit" VMs that contribute the bulk of a box's tickets.
package ticket

import (
	"fmt"
	"sort"

	"atm/internal/timeseries"
)

// Common production ticket thresholds (fraction of allocated capacity).
const (
	Threshold60 = 0.60
	Threshold70 = 0.70
	Threshold80 = 0.80
)

// Count returns the number of ticketing windows in which demand exceeds
// threshold*capacity. With capacity <= 0 every window with positive
// demand tickets (the degenerate "no allocation" case the resizing
// Lemma 4.1 relies on).
func Count(demand timeseries.Series, capacity, threshold float64) int {
	limit := threshold * capacity
	if capacity <= 0 {
		limit = 0
	}
	n := 0
	for _, d := range demand {
		if d > limit {
			n++
		}
	}
	return n
}

// BoxStats summarizes ticket issuing on one box for one resource.
type BoxStats struct {
	// PerVM holds the ticket count of each co-located VM.
	PerVM []int
	// Total is the sum over PerVM.
	Total int
}

// Analyze counts tickets for every VM on a box given per-VM demand
// series and capacities. The two slices must have equal length.
func Analyze(demands []timeseries.Series, capacities []float64, threshold float64) (BoxStats, error) {
	if len(demands) != len(capacities) {
		return BoxStats{}, fmt.Errorf("ticket: %d demand series for %d capacities: %w",
			len(demands), len(capacities), timeseries.ErrLengthMismatch)
	}
	st := BoxStats{PerVM: make([]int, len(demands))}
	for i, d := range demands {
		c := Count(d, capacities[i], threshold)
		st.PerVM[i] = c
		st.Total += c
	}
	return st, nil
}

// Culprits returns the minimum number of VMs that together account for
// at least frac of the box's tickets (the paper uses frac = 0.8: "the
// majority is defined to 80% of usage tickets per box"). A box with no
// tickets has zero culprits.
func (s BoxStats) Culprits(frac float64) int {
	if s.Total == 0 {
		return 0
	}
	counts := make([]int, len(s.PerVM))
	copy(counts, s.PerVM)
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	need := frac * float64(s.Total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum >= need {
			return i + 1
		}
	}
	return len(counts)
}

// Reduction returns the relative ticket reduction going from before to
// after: (before-after)/before. It is negative when tickets increased
// (max-min fairness does this on some boxes in the paper's Figure 10).
// A zero-ticket baseline yields 0 if after is also zero, else -1 per
// extra ticket normalized to 1 (we report -1 as "worst case" to keep
// the metric bounded).
func Reduction(before, after int) float64 {
	if before == 0 {
		if after == 0 {
			return 0
		}
		return -1
	}
	return float64(before-after) / float64(before)
}
