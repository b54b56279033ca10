package timeseries

import "fmt"

// Operations only the tests need: production appends to a ring through
// Extend and reads it through Range.

// AppendSlice appends every sample of s in order as one bulk append.
// When s is longer than the limit only its last limit samples are stored;
// the rest still count towards Total.
func (r *Ring) AppendSlice(s Series) {
	dst := r.Extend(len(s))
	copy(dst, s[len(s)-len(dst):])
}

// First returns the absolute index of the oldest retained sample.
func (r *Ring) First() int { return r.dropped }

// Values returns the whole retained window as a zero-copy Series view
// (see the type comment for the view stability contract).
func (r *Ring) Values() Series { return Series(r.buf[r.start:]) }

// Tail returns the most recent n samples as a zero-copy view. It
// panics if n is negative or exceeds Len (programmer error).
func (r *Ring) Tail(n int) Series {
	if n < 0 || n > r.Len() {
		panic(fmt.Sprintf("timeseries: ring tail %d of %d retained", n, r.Len()))
	}
	return Series(r.buf[len(r.buf)-n:])
}

// Append adds one sample, evicting the oldest retained sample if the
// ring is full.
func (r *Ring) Append(v float64) {
	if len(r.buf) == cap(r.buf) {
		r.Extend(1)[0] = v // compacts
		return
	}
	if r.Len() == r.limit {
		r.start++
		r.dropped++
	}
	r.buf = append(r.buf, v)
}

// Min returns the smallest sample. It panics on an empty series.
func (s Series) Min() float64 {
	if len(s) == 0 {
		panic(ErrEmpty)
	}
	min := s[0]
	for _, v := range s[1:] {
		if v < min {
			min = v
		}
	}
	return min
}
