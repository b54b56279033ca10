// Package state is the streaming counterpart of a batch trace: a
// concurrency-safe per-box store that accepts incremental CPU/RAM
// usage samples and exposes bounded training windows to the pipeline
// without cloning. Each (VM, resource) series lives in a
// timeseries.Ring, so memory stays O(boxes × series × history) no
// matter how long the stream runs, and a WindowInto call materializes a
// trace.Box whose series are zero-copy views into the rings (safe
// because ring storage is append-only — see timeseries.Ring).
//
// At fleet scale the store is sharded: box ownership is split across N
// shards by an FNV-1a hash of the box id, and each shard carries its
// own lock, its own coalesced notify channel and its own dirty set —
// the list of boxes that received at least one append since the last
// scheduler drain. Ingest on one shard never contends with ingest on
// another, and a scheduling pass that drains a shard's dirty set
// inspects O(dirty) boxes instead of rescanning the fleet.
package state

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/obs"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// Store gauges: the live box/series population, the ingest totals,
// and the backlog of boxes awaiting a scheduler drain.
var (
	gaugeBoxes = obs.Default().Gauge("atm_state_boxes",
		"Boxes registered in the streaming state store.")
	gaugeSeries = obs.Default().Gauge("atm_state_series",
		"Demand series retained in the streaming state store.")
	counterSamples = obs.Default().Counter("atm_state_samples_total",
		"Samples ingested into the streaming state store (one per series per tick).")
	gaugeDirty = obs.Default().Gauge("atm_state_dirty_boxes",
		"Boxes with appends not yet drained by a scheduling pass.")
)

// Errors returned by the store.
var (
	// ErrUnknownBox indicates an operation on a box id that was never
	// registered.
	ErrUnknownBox = errors.New("state: unknown box")
	// ErrShapeMismatch indicates a register or append whose VM count
	// disagrees with the box's registered shape.
	ErrShapeMismatch = errors.New("state: shape mismatch")
	// ErrBadSample indicates a batch carrying a usage value that is not
	// a finite, non-negative number.
	ErrBadSample = errors.New("state: bad sample")
)

// VMMeta is the static configuration of one VM on a streamed box.
type VMMeta struct {
	// ID is the VM's cgroup/trace id.
	ID string `json:"id"`
	// CPUCapGHz and RAMCapGB are the allocated virtual capacities.
	CPUCapGHz float64 `json:"cpu_cap_ghz"`
	RAMCapGB  float64 `json:"ram_cap_gb"`
}

// BoxMeta is the static configuration of one streamed box.
type BoxMeta struct {
	// ID is the box id.
	ID string `json:"id"`
	// CPUCapGHz and RAMCapGB are the box's total capacities.
	CPUCapGHz float64 `json:"cpu_cap_ghz"`
	RAMCapGB  float64 `json:"ram_cap_gb"`
	// VMs are the co-located VMs, in series order.
	VMs []VMMeta `json:"vms"`
}

// MetaOf extracts the static configuration of a trace box, for
// registering replayed traces with a store.
func MetaOf(b *trace.Box) BoxMeta {
	m := BoxMeta{ID: b.ID, CPUCapGHz: b.CPUCapGHz, RAMCapGB: b.RAMCapGB}
	m.VMs = make([]VMMeta, len(b.VMs))
	for i := range b.VMs {
		vm := &b.VMs[i]
		m.VMs[i] = VMMeta{ID: vm.ID, CPUCapGHz: vm.CPUCapGHz, RAMCapGB: vm.RAMCapGB}
	}
	return m
}

// boxState is one box's streaming state: static metadata plus one ring
// per (VM, resource) series in trace.SeriesIndex order. The per-box
// lock serializes ring access; distinct boxes ingest concurrently.
type boxState struct {
	mu    sync.Mutex
	meta  BoxMeta
	rings []*timeseries.Ring // usage percent, SeriesIndex order

	// traceID/spanID identify the ingest span that last appended to
	// this box (empty with tracing off). The scheduler links the box's
	// next engine step to this span, giving one trace per
	// ingest→plan round trip.
	traceID string
	spanID  string

	// dirty is the box's membership flag in its shard's dirty list:
	// set (and the box enqueued) by the first append after a drain,
	// cleared by DrainDirty before the scheduler reads the box. The
	// clear-before-read order makes wake-ups lossless: an append
	// racing the drain either lands before the scheduler's locked
	// Total read (consumed this pass) or re-marks the box (consumed
	// next pass).
	dirty atomic.Bool
}

// shard is one slice of the fleet: its own registry lock, its own
// coalesced notify line and its own dirty list, so ingest and
// scheduling on different shards never touch shared state.
type shard struct {
	mu    sync.RWMutex
	boxes map[string]*boxState

	notify chan struct{}

	dirtyMu sync.Mutex
	dirty   []*boxState
}

// Store is a concurrency-safe, sharded collection of streamed boxes.
type Store struct {
	history int
	shards  []shard

	// lastAppend is when the latest accepted append landed (Unix ns).
	lastAppend atomic.Int64
}

// DefaultShards is the shard count the atmd daemon uses; enough to
// spread ingest lock traffic across cores at the paper's 6K-box scale
// while keeping per-shard dirty lists dense.
const DefaultShards = 16

// NewStoreSharded returns an empty store with the given shard count.
// Box ids map to shards by FNV-1a hash; results are independent of the
// shard count (it only changes lock granularity and wake-up routing).
func NewStoreSharded(history, shards int) (*Store, error) {
	if history <= 0 {
		return nil, fmt.Errorf("state: history %d: must be positive", history)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("state: shards %d: must be positive", shards)
	}
	s := &Store{
		history: history,
		shards:  make([]shard, shards),
	}
	for i := range s.shards {
		s.shards[i].boxes = make(map[string]*boxState)
		s.shards[i].notify = make(chan struct{}, 1)
	}
	return s, nil
}

// History returns the per-series retention bound.
func (s *Store) History() int { return s.history }

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// ShardOf returns the shard owning the box id: FNV-1a over the id,
// reduced mod the shard count. Inlined rather than hash/fnv to keep
// the ingest hot path allocation-free.
func (s *Store) ShardOf(id string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(len(s.shards)))
}

// NotifyShard returns the shard's own coalesced wake-up line — the
// per-shard scheduler loop's sleep channel.
func (s *Store) NotifyShard(i int) <-chan struct{} { return s.shards[i].notify }

// LastAppend returns when the latest accepted append landed — the
// engine's sign that ingest is in progress. It is the Unix epoch on a
// store that never took one.
func (s *Store) LastAppend() time.Time { return time.Unix(0, s.lastAppend.Load()) }

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Register adds a box. Registering an already-known box is a no-op
// when it lists the same VM ids in the same order (idempotent
// re-announcement by a reconnecting client) and ErrShapeMismatch
// otherwise.
func (s *Store) Register(meta BoxMeta) error {
	if meta.ID == "" {
		return errors.New("state: empty box id")
	}
	if len(meta.VMs) == 0 {
		return fmt.Errorf("state: box %s has no VMs: %w", meta.ID, ErrShapeMismatch)
	}
	sh := &s.shards[s.ShardOf(meta.ID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.boxes[meta.ID]; ok {
		if len(old.meta.VMs) != len(meta.VMs) {
			return fmt.Errorf("state: box %s re-registered with %d VMs, had %d: %w",
				meta.ID, len(meta.VMs), len(old.meta.VMs), ErrShapeMismatch)
		}
		// Same count, different VM: the new VM's telemetry would
		// continue the old one's series.
		for v := range meta.VMs {
			if meta.VMs[v].ID != old.meta.VMs[v].ID {
				return fmt.Errorf("state: box %s re-registered with VM %q at position %d, had %q: %w",
					meta.ID, meta.VMs[v].ID, v, old.meta.VMs[v].ID, ErrShapeMismatch)
			}
		}
		return nil
	}
	bs := &boxState{meta: meta}
	bs.rings = make([]*timeseries.Ring, len(meta.VMs)*trace.NumResources)
	for i := range bs.rings {
		bs.rings[i] = timeseries.NewRing(s.history)
	}
	sh.boxes[meta.ID] = bs
	gaugeBoxes.Inc()
	gaugeSeries.Add(float64(len(bs.rings)))
	return nil
}

func (s *Store) box(id string) (*shard, *boxState, error) {
	sh := &s.shards[s.ShardOf(id)]
	sh.mu.RLock()
	bs, ok := sh.boxes[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%q: %w", id, ErrUnknownBox)
	}
	return sh, bs, nil
}

// markDirty enqueues the box on its shard's dirty list (once per
// clean→dirty transition), stamps the append's time and fires both
// wake-up lines.
func (s *Store) markDirty(sh *shard, bs *boxState) {
	if bs.dirty.CompareAndSwap(false, true) {
		sh.dirtyMu.Lock()
		sh.dirty = append(sh.dirty, bs)
		sh.dirtyMu.Unlock()
		gaugeDirty.Inc()
	}
	s.lastAppend.Store(time.Now().UnixNano())
	signal(sh.notify)
}

// AppendBatch ingests many ticks for a box atomically: cpu[k][i] and
// ram[k][i] are VM i's usage percent at tick k. Every tick's shape and
// every value (finite, non-negative) is validated before the first
// ring write, so a rejected batch appends nothing — the all-or-nothing
// contract the ingestion API needs to make client retries
// duplicate-free. The write itself is series-major: each ring takes
// the whole batch as one bulk append (one eviction/compaction decision
// per ring, not per sample). It returns the box's new total sample
// count. An empty batch is a valid no-op.
func (s *Store) AppendBatch(id string, cpu, ram [][]float64) (int, error) {
	if len(cpu) != len(ram) {
		return 0, fmt.Errorf("state: box %s batch with %d cpu / %d ram ticks: %w",
			id, len(cpu), len(ram), ErrShapeMismatch)
	}
	sh, bs, err := s.box(id)
	if err != nil {
		return 0, err
	}
	bs.mu.Lock()
	n := len(bs.meta.VMs)
	for k := range cpu {
		if len(cpu[k]) != n || len(ram[k]) != n {
			bs.mu.Unlock()
			return 0, fmt.Errorf("state: box %s tick %d with %d cpu / %d ram values, want %d: %w",
				id, k, len(cpu[k]), len(ram[k]), n, ErrShapeMismatch)
		}
		if v := firstBadSample(cpu[k], ram[k]); v >= 0 {
			bs.mu.Unlock()
			return 0, fmt.Errorf("state: box %s tick %d vm %d: usage %v / %v must be finite and non-negative: %w",
				id, k, v, cpu[k][v], ram[k][v], ErrBadSample)
		}
	}
	for v := 0; v < n; v++ {
		fillColumn(bs.rings[trace.SeriesIndex(v, trace.CPU)], cpu, v)
		fillColumn(bs.rings[trace.SeriesIndex(v, trace.RAM)], ram, v)
	}
	total := bs.rings[0].Total()
	bs.mu.Unlock()
	if len(cpu) == 0 {
		return total, nil
	}
	counterSamples.Add(float64(2 * n * len(cpu)))
	s.markDirty(sh, bs)
	return total, nil
}

// firstBadSample returns the index of the first VM whose cpu or ram
// value is NaN, infinite or negative, or -1. cpu and ram have equal
// length.
func firstBadSample(cpu, ram []float64) int {
	for v := range cpu {
		if !usage(cpu[v]) || !usage(ram[v]) {
			return v
		}
	}
	return -1
}

// usage reports whether x is a finite, non-negative number (both
// comparisons are false for NaN).
func usage(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// fillColumn bulk-appends column v of a tick-major batch to the ring.
func fillColumn(r *timeseries.Ring, ticks [][]float64, v int) {
	dst := r.Extend(len(ticks))
	ticks = ticks[len(ticks)-len(dst):]
	for k := range dst {
		dst[k] = ticks[k][v]
	}
}

// DrainDirty removes the shard's dirty list and appends the affected
// box ids to dst in sorted order, returning the extended slice. Each
// box's dirty flag is cleared before its id is handed out, so an
// append racing the drain is never lost (see boxState.dirty). The
// caller's dst buffer is reused across passes; a steady-state drain
// allocates nothing.
func (s *Store) DrainDirty(i int, dst []string) []string {
	sh := &s.shards[i]
	n := len(dst)
	sh.dirtyMu.Lock()
	for _, bs := range sh.dirty {
		bs.dirty.Store(false)
		dst = append(dst, bs.meta.ID)
	}
	drained := len(sh.dirty)
	sh.dirty = sh.dirty[:0]
	sh.dirtyMu.Unlock()
	if drained > 0 {
		gaugeDirty.Add(float64(-drained))
	}
	slices.Sort(dst[n:])
	return dst
}

// Total returns the number of ticks ever ingested for the box.
func (s *Store) Total(id string) (int, error) {
	_, bs, err := s.box(id)
	if err != nil {
		return 0, err
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.rings[0].Total(), nil
}

// Meta returns the box's registered configuration.
func (s *Store) Meta(id string) (BoxMeta, error) {
	_, bs, err := s.box(id)
	if err != nil {
		return BoxMeta{}, err
	}
	return bs.meta, nil
}

// WindowInto materializes the box restricted to absolute tick range
// [from, to) into dst, whose usage series become zero-copy ring views.
// The append-only ring storage makes the views stable snapshots:
// concurrent ingest never mutates samples dst can see.
// timeseries.ErrEvicted surfaces when the range has aged out of
// retention, timeseries.ErrFuture when it is not fully ingested yet.
// dst is filled in place, growing dst.VMs only when the box has more
// VMs than dst's capacity; on error it is left in an unspecified state.
func (s *Store) WindowInto(id string, from, to int, dst *trace.Box) error {
	_, bs, err := s.box(id)
	if err != nil {
		return err
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	dst.ID, dst.CPUCapGHz, dst.RAMCapGB = bs.meta.ID, bs.meta.CPUCapGHz, bs.meta.RAMCapGB
	if cap(dst.VMs) < len(bs.meta.VMs) {
		dst.VMs = make([]trace.VM, len(bs.meta.VMs))
	}
	dst.VMs = dst.VMs[:len(bs.meta.VMs)]
	for v := range bs.meta.VMs {
		m := bs.meta.VMs[v]
		cpu, err := bs.rings[trace.SeriesIndex(v, trace.CPU)].Range(from, to)
		if err != nil {
			return fmt.Errorf("state: box %s window: %w", id, err)
		}
		ram, err := bs.rings[trace.SeriesIndex(v, trace.RAM)].Range(from, to)
		if err != nil {
			return fmt.Errorf("state: box %s window: %w", id, err)
		}
		dst.VMs[v] = trace.VM{ID: m.ID, CPUCapGHz: m.CPUCapGHz, RAMCapGB: m.RAMCapGB, CPU: cpu, RAM: ram}
	}
	return nil
}
