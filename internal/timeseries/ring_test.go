package timeseries

import (
	"errors"
	"math/rand"
	"testing"

	"atm/internal/race"
)

func TestRingAppendAndWindows(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("empty ring: len %d total %d", r.Len(), r.Total())
	}
	for i := 0; i < 10; i++ {
		r.Append(float64(i))
	}
	if r.Len() != 4 || r.Total() != 10 || r.First() != 6 {
		t.Fatalf("after 10 appends: len %d total %d first %d", r.Len(), r.Total(), r.First())
	}
	want := Series{6, 7, 8, 9}
	got := r.Values()
	if len(got) != len(want) {
		t.Fatalf("values %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values %v, want %v", got, want)
		}
	}
	tail := r.Tail(2)
	if tail[0] != 8 || tail[1] != 9 {
		t.Fatalf("tail(2) = %v", tail)
	}
}

func TestRingRange(t *testing.T) {
	r := NewRing(5)
	for i := 0; i < 12; i++ {
		r.Append(float64(i))
	}
	// Retained window is [7, 12).
	s, err := r.Range(8, 11)
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if len(s) != 3 || s[0] != 8 || s[2] != 10 {
		t.Fatalf("range [8,11) = %v", s)
	}
	if _, err := r.Range(3, 8); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted range: %v", err)
	}
	if _, err := r.Range(10, 14); !errors.Is(err, ErrFuture) {
		t.Fatalf("future range: %v", err)
	}
	if _, err := r.Range(5, 5); err == nil {
		t.Fatal("empty range accepted")
	}
}

// TestRingViewStability is the aliasing contract: a view taken before
// further appends (including enough to force eviction and compaction)
// must keep its values — append-only storage never overwrites samples
// a view can see.
func TestRingViewStability(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Append(float64(i))
	}
	view, err := r.Range(2, 6) // the full retained window [2, 6)
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	snapshot := view.Clone()
	// Drive several full compaction cycles.
	for i := 6; i < 40; i++ {
		r.Append(float64(i))
	}
	for i := range snapshot {
		if view[i] != snapshot[i] {
			t.Fatalf("view[%d] changed from %v to %v after appends", i, snapshot[i], view[i])
		}
	}
}

// TestRingCompactionWrapConcurrentView drives the exact pattern the
// state store relies on: a writer appends (serialized, as the store's
// per-box lock does) through several compaction-on-wrap cycles while a
// reader concurrently re-checks a window view it took earlier. The
// append-only contract says compaction copies into a fresh array and
// never touches memory the view aliases, so the reader must observe a
// frozen snapshot — and the race detector must stay quiet.
func TestRingCompactionWrapConcurrentView(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 12; i++ {
		r.Append(float64(i))
	}
	view, err := r.Range(6, 12) // spans the pre-compaction array
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	snapshot := view.Clone()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for pass := 0; pass < 2000; pass++ {
			for i := range snapshot {
				if view[i] != snapshot[i] {
					t.Errorf("view[%d] changed from %v to %v under concurrent appends",
						i, snapshot[i], view[i])
					return
				}
			}
		}
	}()
	// cap(buf) = 16, so every 8 appends past the wrap point trigger a
	// compaction; 200 appends exercise ~25 fresh-array cycles.
	for i := 12; i < 212; i++ {
		r.Append(float64(i))
	}
	<-done

	// The ring itself must have marched on correctly.
	if r.Total() != 212 || r.First() != 204 || r.Len() != 8 {
		t.Fatalf("after wrap: total %d first %d len %d", r.Total(), r.First(), r.Len())
	}
	tail := r.Values()
	for i, v := range tail {
		if v != float64(204+i) {
			t.Fatalf("values[%d] = %v, want %v", i, v, float64(204+i))
		}
	}
}

func TestRingBadLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

// TestRingBulkAppendMatchesModel is the bulk-append property: a ring
// fed by a random mix of Append, AppendSlice and Extend — batches
// shorter than, equal to and longer than Limit, across wrap, eviction
// and compaction — always equals the model "the last Limit samples of
// everything ever appended, in absolute coordinates", and a view held
// across the appends (re-read concurrently, for the race detector)
// never changes.
func TestRingBulkAppendMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, limit := range []int{1, 2, 7, 8, 64} {
		r := NewRing(limit)
		var all []float64 // the model: every sample ever appended
		next := func() float64 { return float64(len(all)) + 0.5 }

		var view, snapshot Series
		stop, done := make(chan struct{}), make(chan struct{})
		watch := func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range snapshot {
					if view[i] != snapshot[i] {
						t.Errorf("limit %d: view[%d] changed from %v to %v under bulk appends",
							limit, i, snapshot[i], view[i])
						return
					}
				}
			}
		}
		for op := 0; op < 400; op++ {
			n := []int{0, 1, 2, limit - 1, limit, limit + 1, 3*limit + 2}[rng.Intn(7)]
			n = max(n, 0)
			switch rng.Intn(3) {
			case 0:
				for k := 0; k < n; k++ {
					all = append(all, next())
					r.Append(all[len(all)-1])
				}
			case 1:
				batch := make(Series, n)
				for k := range batch {
					all = append(all, next())
					batch[k] = all[len(all)-1]
				}
				r.AppendSlice(batch)
			default:
				dst := r.Extend(n)
				if len(dst) != min(n, limit) {
					t.Fatalf("limit %d: Extend(%d) returned %d slots", limit, n, len(dst))
				}
				for k := 0; k < n; k++ {
					all = append(all, next())
				}
				copy(dst, all[len(all)-len(dst):])
			}
			if r.Total() != len(all) || r.Len() != min(len(all), limit) || r.First() != len(all)-r.Len() {
				t.Fatalf("limit %d after op %d: total %d len %d first %d, model has %d",
					limit, op, r.Total(), r.Len(), r.First(), len(all))
			}
			got := r.Values()
			for i, v := range got {
				if want := all[r.First()+i]; v != want {
					t.Fatalf("limit %d after op %d: values[%d] = %v, want %v", limit, op, i, v, want)
				}
			}
			if r.Len() > 0 {
				mid := r.First() + rng.Intn(r.Len())
				got, err := r.Range(mid, r.Total())
				if err != nil || got[0] != all[mid] {
					t.Fatalf("limit %d: range [%d,%d): %v %v", limit, mid, r.Total(), got, err)
				}
			}
			if op == 20 {
				// Hold the whole retained window from here on.
				view = r.Values()
				snapshot = view.Clone()
				go watch()
			}
		}
		close(stop)
		<-done
	}
}

func TestRingExtendNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Extend(-1) did not panic")
		}
	}()
	NewRing(4).Extend(-1)
}

// TestRingExtendAllocFree: a bulk append allocates only when it grows
// or compacts — once per Limit samples on a full ring, never within
// the slack.
func TestRingExtendAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	r := NewRing(1024)
	r.Extend(1024) // full: the array is at its 2048 slots
	batch := make(Series, 8)
	allocs := testing.AllocsPerRun(100, func() { // 808 of the 1024 spare slots
		r.AppendSlice(batch)
	})
	if allocs != 0 {
		t.Fatalf("AppendSlice within capacity: %v allocs/op, want 0", allocs)
	}
}

// TestRingCapacityFollowsContents is the memory property: a fresh ring
// allocates no array; the array never exceeds 2*limit, nor twice what
// the ring holds once past ringFloor; and a view held across a growth
// and a later compaction keeps its values.
func TestRingCapacityFollowsContents(t *testing.T) {
	if r := NewRing(1 << 20); cap(r.buf) != 0 {
		t.Fatalf("fresh ring holds a %d-slot array", cap(r.buf))
	}
	if !race.Enabled {
		if allocs := testing.AllocsPerRun(10, func() { NewRing(1 << 20) }); allocs > 1 {
			t.Fatalf("NewRing: %v allocs, want only the Ring itself", allocs)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, limit := range []int{1, 5, 16, 100, 1152} {
		r := NewRing(limit)
		var all []float64
		var view, snapshot Series
		grewHeld, compactedHeld := false, false
		for op := 0; op < 300; op++ {
			n := []int{1, 1, 2, 7, limit / 3, limit + 1}[rng.Intn(6)]
			if op == 0 {
				n = min(2, limit) // a ring that still has to grow
			}
			oldBase, oldDropped := base(r), r.First()
			dst := r.Extend(n)
			for k := 0; k < n; k++ {
				all = append(all, float64(len(all)))
			}
			copy(dst, all[len(all)-len(dst):])
			c := cap(r.buf)
			if c > 2*limit {
				t.Fatalf("limit %d: capacity %d past 2*limit", limit, c)
			}
			if c > max(ringFloor, 2*r.Len()) {
				t.Fatalf("limit %d: capacity %d for %d retained samples", limit, c, r.Len())
			}
			if view != nil && base(r) != oldBase {
				if oldDropped == 0 {
					grewHeld = true
				} else {
					compactedHeld = true
				}
			}
			if view == nil && r.Len() >= 2 && r.Len() < limit {
				view = r.Values()
				snapshot = view.Clone()
			}
			for i := range snapshot {
				if view[i] != snapshot[i] {
					t.Fatalf("limit %d op %d: held view[%d] changed from %v to %v", limit, op, i, snapshot[i], view[i])
				}
			}
		}
		if limit >= ringFloor && (!grewHeld || !compactedHeld) {
			t.Fatalf("limit %d: view held across growth %v, compaction %v; want both", limit, grewHeld, compactedHeld)
		}
	}
}

// base returns the first slot of the ring's array (nil before it has
// one): it changes exactly when the ring moves to a fresh array.
func base(r *Ring) *float64 {
	if cap(r.buf) == 0 {
		return nil
	}
	return &r.buf[:1][0]
}

// FuzzRing drives a ring with arbitrary Extend and Range calls and
// checks it against a slice model holding every sample ever appended:
// lengths, totals, values in absolute coordinates, and the ErrEvicted /
// ErrFuture boundaries, across wrap, eviction and growth.
func FuzzRing(f *testing.F) {
	f.Add(uint8(4), []byte{3, 0x85, 9, 0x90, 1, 1, 0xff, 40})
	f.Add(uint8(1), []byte{0, 1, 2, 0x81, 0x82})
	f.Add(uint8(200), []byte{63, 63, 63, 63, 0xc0, 0x80, 63, 0xbf})
	f.Fuzz(func(t *testing.T, lim uint8, ops []byte) {
		limit := int(lim)%64 + 1
		r := NewRing(limit)
		var all []float64
		for i, op := range ops {
			if op&0x80 == 0 {
				n := int(op)
				dst := r.Extend(n)
				if len(dst) != min(n, limit) {
					t.Fatalf("op %d: Extend(%d) gave %d slots", i, n, len(dst))
				}
				for k := 0; k < n; k++ {
					all = append(all, float64(len(all))+0.25)
				}
				copy(dst, all[len(all)-len(dst):])
			} else {
				// A range query whose bounds reach past both ends of
				// the retained window.
				span := limit + 4
				from := len(all) - span + int(op>>3)&0x0f
				to := from + 1 + int(op&0x07)
				got, err := r.Range(from, to)
				switch {
				case from < 0:
					if err == nil {
						t.Fatalf("op %d: Range(%d,%d) accepted", i, from, to)
					}
				case from < len(all)-min(len(all), limit):
					if !errors.Is(err, ErrEvicted) {
						t.Fatalf("op %d: Range(%d,%d) = %v, want ErrEvicted", i, from, to, err)
					}
				case to > len(all):
					if !errors.Is(err, ErrFuture) {
						t.Fatalf("op %d: Range(%d,%d) = %v, want ErrFuture", i, from, to, err)
					}
				default:
					if err != nil {
						t.Fatalf("op %d: Range(%d,%d): %v", i, from, to, err)
					}
					for k, v := range got {
						if v != all[from+k] {
							t.Fatalf("op %d: Range(%d,%d)[%d] = %v, want %v", i, from, to, k, v, all[from+k])
						}
					}
				}
			}
			if r.Total() != len(all) || r.Len() != min(len(all), limit) {
				t.Fatalf("op %d: total %d len %d, model has %d", i, r.Total(), r.Len(), len(all))
			}
			if c := cap(r.buf); c > 2*limit || c > max(ringFloor, 2*r.Len()) {
				t.Fatalf("op %d: capacity %d for limit %d, %d retained", i, c, limit, r.Len())
			}
		}
	})
}
