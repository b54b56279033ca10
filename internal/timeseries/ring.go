package timeseries

import (
	"errors"
	"fmt"
)

// Ring errors.
var (
	// ErrEvicted indicates a requested sample range starts before the
	// ring's retention window (the samples have been evicted).
	ErrEvicted = errors.New("timeseries: samples evicted from ring")
	// ErrFuture indicates a requested sample range ends past the last
	// appended sample.
	ErrFuture = errors.New("timeseries: samples not yet appended")
)

// Ring is a bounded append-only series buffer: it retains the most
// recent limit samples and evicts the oldest as new samples arrive.
// It is the per-series storage of the streaming state store, holding
// exactly the training+horizon window the pipeline needs without the
// unbounded growth of a plain Series.
//
// Samples are addressed in absolute stream coordinates: the i-th
// sample ever appended has index i, whether or not it is still
// retained. Total reports how many have been appended.
//
// Storage is append-only: a retained sample is never overwritten in
// place. Eviction advances a start offset; growth and compaction copy
// the live window into a fresh array, leaving old arrays untouched. A
// Series view returned by Range therefore stays valid
// — and data-race-free against concurrent appends serialized by the
// caller's lock — for as long as the caller holds it; it is a stable
// snapshot, not a window that slides under the reader.
//
// Memory follows what the ring holds, not its limit: a fresh ring has
// no array, and its array is never more than twice the retained
// samples (or ringFloor) nor more than 2*limit.
//
// Ring itself is not safe for concurrent use; callers (the state
// store) serialize access.
type Ring struct {
	limit   int
	buf     []float64
	start   int // buf[start:] is the retained window
	dropped int // samples evicted; absolute index of buf[start]
}

// NewRing returns a ring retaining at most limit samples. It panics if
// limit is not positive (a programmer error).
func NewRing(limit int) *Ring {
	if limit <= 0 {
		panic(fmt.Sprintf("timeseries: ring limit %d: must be positive", limit))
	}
	// No array yet: Extend allocates the first when samples arrive and
	// grows it with what the ring holds.
	return &Ring{limit: limit}
}

// ringFloor is the smallest array a ring grows into, unless 2*limit is
// smaller.
const ringFloor = 16

// Extend appends n samples whose values the caller fills in: it makes
// one eviction and at most one compaction decision for the whole batch
// and returns the new tail as a writable slice, which the caller must
// fill before the next call on the ring (the slots hold garbage until
// then). It is the reserve form of a bulk append for callers whose
// samples are not contiguous in memory — the state store writes one
// strided column of a tick-major batch into it. When n exceeds limit
// the first n-limit samples of the batch would be evicted by its own
// tail, so the returned slice has length min(n, limit) and stands for
// the batch's last samples; Total still advances by n. It panics if n
// is negative (programmer error).
//
// The view contract holds: the returned slots lie past every
// outstanding view in the current array, or in a fresh one.
func (r *Ring) Extend(n int) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("timeseries: ring extend %d: must be non-negative", n))
	}
	keep := min(n, r.limit)
	if over := r.Len() + keep - r.limit; over > 0 {
		r.start += over
		r.dropped += over
	}
	r.dropped += n - keep
	end := len(r.buf)
	if end+keep > cap(r.buf) {
		// Grow or compact into a fresh array so outstanding views (which
		// alias the old one) remain valid. The array holds twice what
		// the ring will hold, like append's doubling, up to 2*limit: a
		// filling ring copies each sample O(1) times amortized, and a
		// full ring compacts about once per limit appended samples.
		live := end - r.start
		nb := make([]float64, live, min(max(2*(live+keep), ringFloor), 2*r.limit))
		copy(nb, r.buf[r.start:])
		r.buf, r.start, end = nb, 0, live
	}
	r.buf = r.buf[:end+keep]
	return r.buf[end:]
}

// Len returns the number of retained samples (≤ limit).
func (r *Ring) Len() int { return len(r.buf) - r.start }

// Total returns the number of samples ever appended.
func (r *Ring) Total() int { return r.dropped + r.Len() }

// Range returns the samples with absolute indices [from, to) as a
// zero-copy view. It returns ErrEvicted when the range starts before
// the retention window and ErrFuture when it ends past the last
// appended sample.
func (r *Ring) Range(from, to int) (Series, error) {
	if from < 0 || from >= to {
		return nil, fmt.Errorf("timeseries: ring range [%d,%d): invalid", from, to)
	}
	if from < r.dropped {
		return nil, fmt.Errorf("timeseries: ring range [%d,%d) before retained [%d,%d): %w",
			from, to, r.dropped, r.Total(), ErrEvicted)
	}
	if to > r.Total() {
		return nil, fmt.Errorf("timeseries: ring range [%d,%d) past total %d: %w",
			from, to, r.Total(), ErrFuture)
	}
	i := r.start + (from - r.dropped)
	return Series(r.buf[i : i+(to-from)]), nil
}
