package state

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"atm/internal/race"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

func meta(id string, vms int) BoxMeta {
	m := BoxMeta{ID: id, CPUCapGHz: 10, RAMCapGB: 64}
	for v := 0; v < vms; v++ {
		m.VMs = append(m.VMs, VMMeta{ID: string(rune('a' + v)), CPUCapGHz: 2, RAMCapGB: 8})
	}
	return m
}

func TestStoreRegisterAndAppend(t *testing.T) {
	s, err := NewStoreSharded(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStoreSharded(0, 1); err == nil {
		t.Error("zero history accepted")
	}
	if err := s.Register(meta("b1", 2)); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Idempotent on matching shape, error on mismatch.
	if err := s.Register(meta("b1", 2)); err != nil {
		t.Errorf("re-register same shape: %v", err)
	}
	if err := s.Register(meta("b1", 3)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("re-register new shape: %v, want ErrShapeMismatch", err)
	}
	// Same VM count, one VM swapped: a mismatch, not a no-op.
	swapped := meta("b1", 2)
	swapped.VMs[1].ID = "z"
	if err := s.Register(swapped); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("re-register with a swapped VM: %v, want ErrShapeMismatch", err)
	}
	if m, _ := s.Meta("b1"); m.VMs[1].ID != "b" {
		t.Errorf("swapped re-register replaced VM %q with %q", "b", m.VMs[1].ID)
	}
	if err := s.Register(BoxMeta{ID: "empty"}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("register no VMs: %v, want ErrShapeMismatch", err)
	}
	if err := s.Register(BoxMeta{VMs: meta("x", 1).VMs}); err == nil {
		t.Error("empty id accepted")
	}

	total, err := s.Append("b1", []float64{10, 20}, []float64{30, 40})
	if err != nil || total != 1 {
		t.Fatalf("append: total=%d err=%v", total, err)
	}
	if _, err := s.Append("b1", []float64{10}, []float64{30, 40}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("short tick: %v, want ErrShapeMismatch", err)
	}
	if _, err := s.Append("nope", []float64{1}, []float64{1}); !errors.Is(err, ErrUnknownBox) {
		t.Errorf("unknown box: %v, want ErrUnknownBox", err)
	}
	if got := s.Boxes(); len(got) != 1 || got[0] != "b1" {
		t.Errorf("Boxes() = %v", got)
	}
	m, err := s.Meta("b1")
	if err != nil || m.ID != "b1" || len(m.VMs) != 2 {
		t.Errorf("Meta = %+v, %v", m, err)
	}
}

func TestStoreWindowViewsAndEviction(t *testing.T) {
	s, _ := NewStoreSharded(4, 1)
	if err := s.Register(meta("b", 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Append("b", []float64{float64(i)}, []float64{float64(10 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	total, _ := s.Total("b")
	first, _ := s.First("b")
	if total != 6 || first != 2 {
		t.Fatalf("total=%d first=%d, want 6, 2", total, first)
	}
	wb, err := s.Window("b", 2, 6)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if len(wb.VMs) != 1 || len(wb.VMs[0].CPU) != 4 {
		t.Fatalf("window shape: %+v", wb)
	}
	for i, want := range []float64{2, 3, 4, 5} {
		if wb.VMs[0].CPU[i] != want || wb.VMs[0].RAM[i] != 10*want {
			t.Errorf("window[%d] = (%v,%v), want (%v,%v)",
				i, wb.VMs[0].CPU[i], wb.VMs[0].RAM[i], want, 10*want)
		}
	}
	if _, err := s.Window("b", 0, 4); !errors.Is(err, timeseries.ErrEvicted) {
		t.Errorf("evicted window: %v, want ErrEvicted", err)
	}
	if _, err := s.Window("b", 4, 8); !errors.Is(err, timeseries.ErrFuture) {
		t.Errorf("future window: %v, want ErrFuture", err)
	}
	if _, err := s.Window("nope", 0, 1); !errors.Is(err, ErrUnknownBox) {
		t.Errorf("unknown window: %v, want ErrUnknownBox", err)
	}
}

func TestStoreNotifyCoalesces(t *testing.T) {
	s, _ := NewStoreSharded(4, 1)
	if err := s.Register(meta("b", 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append("b", []float64{1}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-s.NotifyShard(0):
	default:
		t.Fatal("no signal after appends")
	}
	select {
	case <-s.NotifyShard(0):
		t.Fatal("signals not coalesced")
	default:
	}
}

func TestMetaOfRoundTrip(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{Boxes: 1, Days: 1, SamplesPerDay: 8, Seed: 3, GapFraction: 1e-9})
	b := &tr.Boxes[0]
	m := MetaOf(b)
	if m.ID != b.ID || len(m.VMs) != len(b.VMs) || m.CPUCapGHz != b.CPUCapGHz {
		t.Fatalf("MetaOf = %+v", m)
	}
	for i := range b.VMs {
		if m.VMs[i].ID != b.VMs[i].ID || m.VMs[i].RAMCapGB != b.VMs[i].RAMCapGB {
			t.Errorf("vm %d meta mismatch", i)
		}
	}
}

// TestStoreConcurrentIngest hammers appends from many goroutines while
// a reader keeps materializing windows — the contract the engine
// relies on, checked under -race in CI.
func TestStoreConcurrentIngest(t *testing.T) {
	s, _ := NewStoreSharded(32, 1)
	const boxes, ticks = 4, 200
	ids := make([]string, boxes)
	for i := range ids {
		ids[i] = meta(string(rune('A'+i)), 2).ID
		if err := s.Register(meta(ids[i], 2)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for k := 0; k < ticks; k++ {
				if _, err := s.Append(id, []float64{1, 2}, []float64{3, 4}); err != nil {
					t.Errorf("append %s: %v", id, err)
					return
				}
			}
		}(id)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range ids {
				total, err := s.Total(id)
				if err != nil || total < 8 {
					continue
				}
				first, _ := s.First(id)
				if first >= total {
					continue // a whole history of appends landed between the two reads
				}
				// Concurrent appends may evict `first` between the two
				// calls; any other error is a real failure.
				if _, err := s.Window(id, first, total); err != nil && !errors.Is(err, timeseries.ErrEvicted) {
					t.Errorf("window %s [%d,%d): %v", id, first, total, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
}

func TestStoreShardingBasics(t *testing.T) {
	if _, err := NewStoreSharded(8, 0); err == nil {
		t.Error("zero shards accepted")
	}
	s, err := NewStoreSharded(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 7 {
		t.Fatalf("Shards() = %d, want 7", s.Shards())
	}
	// ShardOf is a pure function of the id: stable, in range, and not
	// degenerate (many ids spread over more than one shard).
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("box-%03d", i)
		sh := s.ShardOf(id)
		if sh < 0 || sh >= 7 {
			t.Fatalf("ShardOf(%q) = %d out of range", id, sh)
		}
		if sh != s.ShardOf(id) {
			t.Fatalf("ShardOf(%q) unstable", id)
		}
		seen[sh] = true
		if err := s.Register(meta(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("100 ids landed on %d shard(s)", len(seen))
	}
	// Boxes() is globally sorted regardless of the shard layout.
	all := s.Boxes()
	if len(all) != 100 || !slices.IsSorted(all) {
		t.Fatalf("Boxes() = %d ids, sorted=%v", len(all), slices.IsSorted(all))
	}
}

func TestStoreDirtyDrain(t *testing.T) {
	s, err := NewStoreSharded(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for _, id := range ids {
		if err := s.Register(meta(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	drainAll := func() []string {
		var got []string
		for i := 0; i < s.Shards(); i++ {
			got = s.DrainDirty(i, got)
		}
		slices.Sort(got)
		return got
	}
	// Nothing dirty before any append.
	if got := drainAll(); len(got) != 0 {
		t.Fatalf("dirty before appends: %v", got)
	}
	// Appends mark exactly the touched boxes, coalescing repeats.
	for _, id := range []string{"b", "d", "b", "b", "d"} {
		if _, err := s.Append(id, []float64{1}, []float64{2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainAll(); !slices.Equal(got, []string{"b", "d"}) {
		t.Fatalf("dirty = %v, want [b d]", got)
	}
	// Drain clears: a second drain is empty until the next append.
	if got := drainAll(); len(got) != 0 {
		t.Fatalf("dirty after drain: %v", got)
	}
	if _, err := s.AppendBatch("e", [][]float64{{1}, {2}}, [][]float64{{3}, {4}}); err != nil {
		t.Fatal(err)
	}
	if got := drainAll(); !slices.Equal(got, []string{"e"}) {
		t.Fatalf("dirty after batch = %v, want [e]", got)
	}
	// The per-shard notify line fired for e's shard.
	select {
	case <-s.NotifyShard(s.ShardOf("e")):
	default:
		t.Fatal("no shard signal after batch append")
	}
}

func TestStoreAppendBatchAtomic(t *testing.T) {
	s, _ := NewStoreSharded(16, 1)
	if err := s.Register(meta("b", 2)); err != nil {
		t.Fatal(err)
	}
	// A bad tick anywhere in the batch must append nothing.
	cpu := [][]float64{{1, 2}, {3}, {5, 6}}
	ram := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if _, err := s.AppendBatch("b", cpu, ram); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("bad batch: %v, want ErrShapeMismatch", err)
	}
	if total, _ := s.Total("b"); total != 0 {
		t.Fatalf("bad batch appended %d ticks, want 0", total)
	}
	if got := s.DrainDirty(0, nil); len(got) != 0 {
		t.Fatalf("bad batch marked dirty: %v", got)
	}
	if at := s.LastAppend(); at.UnixNano() != 0 {
		t.Fatalf("bad batch stamped an append at %v", at)
	}
	// Mismatched cpu/ram tick counts are rejected up front.
	if _, err := s.AppendBatch("b", cpu[:1], ram); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("ragged batch: %v, want ErrShapeMismatch", err)
	}
	// A good batch lands whole and reads back in order.
	before := time.Now()
	total, err := s.AppendBatch("b", ram, ram)
	if err != nil || total != 3 {
		t.Fatalf("good batch: total=%d err=%v", total, err)
	}
	landed := s.LastAppend()
	if landed.Before(before) || landed.After(time.Now()) {
		t.Fatalf("good batch stamped %v, want between %v and now", landed, before)
	}
	wb, err := s.Window("b", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if wb.VMs[0].CPU[k] != ram[k][0] || wb.VMs[1].RAM[k] != ram[k][1] {
			t.Fatalf("tick %d read back wrong", k)
		}
	}
	// Empty batch: valid no-op, not dirty.
	s.DrainDirty(0, nil)
	if total, err := s.AppendBatch("b", nil, nil); err != nil || total != 3 {
		t.Fatalf("empty batch: total=%d err=%v", total, err)
	}
	if got := s.DrainDirty(0, nil); len(got) != 0 {
		t.Fatalf("empty batch marked dirty: %v", got)
	}
	if at := s.LastAppend(); !at.Equal(landed) {
		t.Fatalf("empty batch moved the append stamp from %v to %v", landed, at)
	}
	if _, err := s.AppendBatch("nope", nil, nil); !errors.Is(err, ErrUnknownBox) {
		t.Fatalf("unknown box batch: %v, want ErrUnknownBox", err)
	}
}

// TestStoreDirtyNoLostWakeup hammers appends against concurrent drains
// and checks every appended tick is covered by a drain that reports
// the box at (or after) that tick's total — the lossless hand-off the
// per-shard scheduler loops rely on, exercised under -race in CI.
func TestStoreDirtyNoLostWakeup(t *testing.T) {
	s, _ := NewStoreSharded(4096, 3)
	const boxes, ticks = 5, 300
	ids := make([]string, boxes)
	for i := range ids {
		ids[i] = fmt.Sprintf("box-%d", i)
		if err := s.Register(meta(ids[i], 1)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for k := 0; k < ticks; k++ {
				if _, err := s.Append(id, []float64{1}, []float64{2}); err != nil {
					t.Errorf("append %s: %v", id, err)
					return
				}
			}
		}(id)
	}
	stop := make(chan struct{})
	drainerDone := make(chan struct{})
	go func() {
		defer close(drainerDone)
		var buf []string
		for {
			for i := 0; i < s.Shards(); i++ {
				buf = s.DrainDirty(i, buf[:0])
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-drainerDone
	// All appends done, drainer stopped: one final drain must surface
	// exactly the boxes whose last append raced past the drainer's
	// final pass, and afterwards every box reads its full total.
	var final []string
	for i := 0; i < s.Shards(); i++ {
		final = s.DrainDirty(i, final)
	}
	for _, id := range ids {
		total, err := s.Total(id)
		if err != nil || total != ticks {
			t.Errorf("box %s: total=%d err=%v, want %d", id, total, err, ticks)
		}
	}
	// Nothing left dirty.
	for i := 0; i < s.Shards(); i++ {
		if got := s.DrainDirty(i, nil); len(got) != 0 {
			t.Errorf("shard %d still dirty after final drain: %v", i, got)
		}
	}
}

// TestStoreAppendBatchRejectsBadSamples: a NaN, infinite or negative
// usage value anywhere in a batch fails the validation pass, so the
// batch appends nothing and does not mark the box dirty.
func TestStoreAppendBatchRejectsBadSamples(t *testing.T) {
	s, _ := NewStoreSharded(16, 1)
	if err := s.Register(meta("b", 2)); err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{1, 2}, {3, 4}, {0, math.Copysign(0, -1)}}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.01, -math.MaxFloat64} {
		for _, inRAM := range []bool{false, true} {
			cpu := [][]float64{{1, 2}, {3, 4}, {5, 6}}
			ram := [][]float64{{1, 2}, {3, 4}, {5, 6}}
			if inRAM {
				ram[2][1] = bad
			} else {
				cpu[1][0] = bad
			}
			if _, err := s.AppendBatch("b", cpu, ram); !errors.Is(err, ErrBadSample) {
				t.Fatalf("value %v (ram=%v): err = %v, want ErrBadSample", bad, inRAM, err)
			}
		}
	}
	if total, _ := s.Total("b"); total != 0 {
		t.Fatalf("bad batches appended %d ticks, want 0", total)
	}
	if got := s.DrainDirty(0, nil); len(got) != 0 {
		t.Fatalf("bad batch marked dirty: %v", got)
	}
	if at := s.LastAppend(); at.UnixNano() != 0 {
		t.Fatalf("bad batch stamped an append at %v", at)
	}
	// Zero, negative zero and the largest finite value are usage values.
	good[0][0] = math.MaxFloat64
	if total, err := s.AppendBatch("b", good, good); err != nil || total != 3 {
		t.Fatalf("good batch: total=%d err=%v", total, err)
	}
}

// TestStoreAppendBatchMatchesAppend: the series-major bulk write leaves
// the store exactly where tick-by-tick Append leaves it, across ring
// eviction and compaction and for batches longer than the history.
func TestStoreAppendBatchMatchesAppend(t *testing.T) {
	const history, vms = 12, 3
	bulk, _ := NewStoreSharded(history, 1)
	ref, _ := NewStoreSharded(history, 1)
	for _, s := range []*Store{bulk, ref} {
		if err := s.Register(meta("b", vms)); err != nil {
			t.Fatal(err)
		}
	}
	tick := 0
	for _, n := range []int{1, 5, 0, 11, 12, 13, 2, 40, 7, 24, 3} {
		cpu := make([][]float64, n)
		ram := make([][]float64, n)
		for k := range cpu {
			cpu[k], ram[k] = make([]float64, vms), make([]float64, vms)
			for v := 0; v < vms; v++ {
				cpu[k][v] = float64(tick*10 + v)
				ram[k][v] = float64(tick*10+v) + 0.5
			}
			if _, err := ref.Append("b", cpu[k], ram[k]); err != nil {
				t.Fatal(err)
			}
			tick++
		}
		total, err := bulk.AppendBatch("b", cpu, ram)
		if err != nil || total != tick {
			t.Fatalf("batch of %d: total=%d err=%v, want %d", n, total, err, tick)
		}
		first, _ := bulk.First("b")
		if want, _ := ref.First("b"); first != want {
			t.Fatalf("after %d ticks: first = %d, want %d", tick, first, want)
		}
		if first == tick {
			continue
		}
		got, err := bulk.Window("b", first, tick)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Window("b", first, tick)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < vms; v++ {
			if !slices.Equal(got.VMs[v].CPU, want.VMs[v].CPU) || !slices.Equal(got.VMs[v].RAM, want.VMs[v].RAM) {
				t.Fatalf("after %d ticks vm %d:\nbulk %v / %v\nref  %v / %v", tick, v,
					got.VMs[v].CPU, got.VMs[v].RAM, want.VMs[v].CPU, want.VMs[v].RAM)
			}
		}
	}
}

// BenchmarkAppendBatch times the store's share of one backfill request
// entry: 24 ticks × 10 VMs appended to a box at the paper's history,
// steady state (rings warm, eviction and compaction included).
func BenchmarkAppendBatch(b *testing.B) {
	const history, vms, ticks = 1152, 10, 24
	s, _ := NewStoreSharded(history, DefaultShards)
	if err := s.Register(meta("b", vms)); err != nil {
		b.Fatal(err)
	}
	cpu := make([][]float64, ticks)
	ram := make([][]float64, ticks)
	for k := range cpu {
		cpu[k], ram[k] = make([]float64, vms), make([]float64, vms)
		for v := range cpu[k] {
			cpu[k][v], ram[k][v] = float64(k+v), float64(k*v)
		}
	}
	b.SetBytes(int64(2 * ticks * vms * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AppendBatch("b", cpu, ram); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStoreAppendBatchAllocFree gates the ingest hot path: between
// ring compactions a batch append — validation, the series-major bulk
// write, the dirty mark — allocates nothing.
func TestStoreAppendBatchAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s, _ := NewStoreSharded(4096, DefaultShards) // no compaction within the runs below
	if err := s.Register(meta("b", 3)); err != nil {
		t.Fatal(err)
	}
	// A 1,024-tick warm-up grows each ring to 2,048 slots, room for
	// every run below.
	warm := make([][]float64, 1024)
	for k := range warm {
		warm[k] = []float64{1, 2, 3}
	}
	if _, err := s.AppendBatch("b", warm, warm); err != nil {
		t.Fatal(err)
	}
	cpu := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 2, 3}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.AppendBatch("b", cpu, cpu); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBatch: %v allocs/op, want 0", allocs)
	}
}
