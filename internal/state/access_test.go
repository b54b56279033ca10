package state

import (
	"fmt"
	"slices"

	"atm/internal/trace"
)

// Accessors only the tests need: production ingest goes through
// AppendBatchCtx and the engine reads windows through WindowInto.
// Append is the per-sample reference the bulk path is checked against.

// Append ingests one sampling tick for a box: cpu[i] and ram[i] are
// VM i's usage percent for the tick, in the registered VM order. It
// returns the box's new total sample count.
func (s *Store) Append(id string, cpu, ram []float64) (int, error) {
	sh, bs, err := s.box(id)
	if err != nil {
		return 0, err
	}
	bs.mu.Lock()
	if len(cpu) != len(bs.meta.VMs) || len(ram) != len(bs.meta.VMs) {
		n := len(bs.meta.VMs)
		bs.mu.Unlock()
		return 0, fmt.Errorf("state: box %s tick with %d cpu / %d ram values, want %d: %w",
			id, len(cpu), len(ram), n, ErrShapeMismatch)
	}
	for v := range bs.meta.VMs {
		bs.rings[trace.SeriesIndex(v, trace.CPU)].Extend(1)[0] = cpu[v]
		bs.rings[trace.SeriesIndex(v, trace.RAM)].Extend(1)[0] = ram[v]
	}
	total := bs.rings[0].Total()
	bs.mu.Unlock()
	counterSamples.Add(float64(2 * len(cpu)))
	s.markDirty(sh, bs)
	return total, nil
}

// First returns the absolute index of the oldest retained tick.
func (s *Store) First(id string) (int, error) {
	_, bs, err := s.box(id)
	if err != nil {
		return 0, err
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.rings[0].Total() - bs.rings[0].Len(), nil
}

// Boxes returns the registered box ids in sorted order.
func (s *Store) Boxes() []string {
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.boxes {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(ids)
	return ids
}

// Window materializes the box restricted to absolute tick range
// [from, to) as a trace.Box whose usage series are zero-copy ring
// views. The append-only ring storage makes the views stable
// snapshots: concurrent ingest never mutates samples the returned box
// can see. timeseries.ErrEvicted surfaces when the range has aged out
// of retention, timeseries.ErrFuture when it is not fully ingested
// yet.
func (s *Store) Window(id string, from, to int) (*trace.Box, error) {
	out := &trace.Box{}
	if err := s.WindowInto(id, from, to, out); err != nil {
		return nil, err
	}
	return out, nil
}
