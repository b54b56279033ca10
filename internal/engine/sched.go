package engine

import (
	"container/heap"
	"sync"
	"time"
)

// gate is the engine-wide step scheduler: a counting semaphore whose
// waiters are dispatched smallest due time first, where due = the time
// the step became ready + its estimated compute time. Steps that fall
// due together therefore run shortest first — the order that minimises
// the median and mean wait — while a step that has already waited its
// own length has a due time in the past and outranks every step that
// becomes ready later, so nothing starves. A freed slot is handed
// straight to the head of the wait list, never put back for a newcomer
// to take, and an uncontended acquire is one mutex operation.
type gate struct {
	mu   sync.Mutex
	free int      // idle slots; non-zero only while wait is empty
	seq  uint64   // arrivals so far: ties on due dispatch in arrival order
	wait waitList // min-heap on (due, seq)
}

// waiter is one blocked acquire. Its owner reuses it across waits (the
// engine keeps one per box), so a contended acquire allocates nothing.
type waiter struct {
	due  time.Time
	seq  uint64
	wake chan struct{} // capacity 1: the releaser never blocks on the hand-off
}

func newWaiter() waiter { return waiter{wake: make(chan struct{}, 1)} }

// acquire blocks until the caller holds one of the gate's slots.
func (g *gate) acquire(w *waiter, due time.Time) {
	g.mu.Lock()
	if g.free > 0 {
		g.free--
		g.mu.Unlock()
		return
	}
	w.due, w.seq = due, g.seq
	g.seq++
	heap.Push(&g.wait, w)
	g.mu.Unlock()
	<-w.wake
}

// release returns the caller's slot: to the waiter with the smallest
// due time if there is one, to the idle count otherwise.
func (g *gate) release() {
	g.mu.Lock()
	if len(g.wait) == 0 {
		g.free++
		g.mu.Unlock()
		return
	}
	w := heap.Pop(&g.wait).(*waiter)
	g.mu.Unlock()
	w.wake <- struct{}{}
}

// waitList implements heap.Interface over blocked acquires.
type waitList []*waiter

func (l waitList) Len() int { return len(l) }
func (l waitList) Less(i, j int) bool {
	if c := l[i].due.Compare(l[j].due); c != 0 {
		return c < 0
	}
	return l[i].seq < l[j].seq
}
func (l waitList) Swap(i, j int) { l[i], l[j] = l[j], l[i] }
func (l *waitList) Push(x any)   { *l = append(*l, x.(*waiter)) }
func (l *waitList) Pop() any {
	old := *l
	w := old[len(old)-1]
	old[len(old)-1] = nil
	*l = old[:len(old)-1]
	return w
}
