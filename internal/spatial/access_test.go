package spatial

import (
	"context"

	"atm/internal/timeseries"
)

// Refit is RefitContext without tracing: the from-scratch reference the
// incremental roller is held to.
func Refit(series []timeseries.Series, signatures []int) (*Model, error) {
	return RefitContext(context.Background(), series, signatures)
}
