package engine

import (
	"container/heap"
	"sync"
	"time"
)

// boxState is a box's place in the step scheduler, under the shard lock.
// Whoever moves a box out of idle owns it until it moves it back.
type boxState uint8

const (
	idle    boxState = iota // no step pending; a pass may queue the box
	queued                  // on the ready queue, or about to be pushed
	running                 // a step goroutine owns the box
)

func (s boxState) String() string { return [...]string{"idle", "queued", "running"}[s] }

// describe is the state as the debug surface names it: a box queued for
// or running its next step's model phase ahead of time is preparing, an
// idle one that holds the finished phase is prepared.
func (br *boxRun) describe() string {
	switch {
	case br.state != idle && br.ahead:
		return "preparing"
	case br.state == idle && br.prepared:
		return "prepared"
	}
	return br.state.String()
}

// ingestLinger is how long after an append one slot stays shut to due
// steps: longer than a client's turnaround plus a runtime hiccup, about
// one cheap step. A model phase run ahead may take that slot meanwhile.
const ingestLinger = 3 * time.Millisecond

// sched is the engine-wide step scheduler: one ready queue of boxes and
// a bound on the steps computing at once. Whenever a slot is open the
// box with the smallest due time — when its step was found ready + its
// estimated compute time — starts on a goroutine of its own. Steps that
// fall due together therefore run shortest first, the order that
// minimises the median and mean wait, while a step that has waited its
// own length is due in the past and outranks every step found ready
// later, so nothing starves. Nothing blocks while it is queued.
//
// The queue has a second class below the first: boxes whose next step is
// not due yet, waiting to run its model phase ahead of the actuals
// (boxRun.ahead), in the same order among themselves. They get a slot
// only when no due step wants it, and move up a class (promote) the
// moment their step falls due.
//
// While batches are landing one of several slots stays shut to due
// steps: Go polls the network only on an idle P or every 10 ms from
// sysmon, so with every P inside a step a burst would trickle in a body
// per poll and the queue would order half of it instead of all of it.
// The shut slot is lent to the model phases run ahead, when one heads
// the queue: ingest has no deadline and a plan has, and a phase done
// before its step falls due is a step that only finishes. One that is
// promoted in the lent slot stays there.
type sched struct {
	mu    sync.Mutex
	slots int
	busy  int      // slots held by steps
	seq   uint64   // pushes so far: ties on due dispatch in push order
	queue boxQueue // min-heap on (ahead, due, seq)
	armed bool     // a timer will reopen the slot shut for ingest

	start      func(*boxRun)    // runs a popped box; entered with a slot held
	lastAppend func() time.Time // when ingest last landed a batch
}

// open is how many slots may be held once work of the given class
// starts and, when one is shut to it for ingest, for how much longer.
func (s *sched) open(ahead bool) (int, time.Duration) {
	if !ahead && s.slots > 1 {
		if left := time.Until(s.lastAppend().Add(ingestLinger)); left > 0 {
			return s.slots - 1, left
		}
	}
	return s.slots, 0
}

// push puts a queued box on the ready queue.
func (s *sched) push(br *boxRun) {
	s.mu.Lock()
	br.seq = s.seq
	s.seq++
	heap.Push(&s.queue, br)
	s.mu.Unlock()
	s.dispatch(0)
}

// promote turns a box that is queued for, or running, its model phase
// ahead of time into a due step, ready at now and costing cost more.
func (s *sched) promote(br *boxRun, now time.Time, cost time.Duration) {
	s.mu.Lock()
	br.ahead = false
	br.ready, br.due = now, now.Add(cost)
	if br.pos > 0 {
		heap.Fix(&s.queue, br.pos-1)
	}
	s.mu.Unlock()
}

// dispatch gives back freed slots, then starts queued boxes, smallest
// due time first, while slots are open.
func (s *sched) dispatch(freed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy -= freed
	var left time.Duration
	for len(s.queue) > 0 {
		var limit int
		if limit, left = s.open(s.queue[0].ahead); s.busy >= limit {
			break
		}
		s.busy++
		go s.start(heap.Pop(&s.queue).(*boxRun))
	}
	stepsQueued.Set(float64(len(s.queue)))
	if left > 0 && len(s.queue) > 0 && !s.armed {
		s.armed = true
		time.AfterFunc(left, func() {
			s.mu.Lock()
			s.armed = false
			s.mu.Unlock()
			s.dispatch(0)
		})
	}
}

// tryAcquire takes an open slot for the queued box's work to run on the
// caller's goroutine. A model phase run ahead may take the slot shut for
// ingest only when no due step is queued for it.
func (s *sched) tryAcquire(br *boxRun) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	limit, _ := s.open(br.ahead && (len(s.queue) == 0 || s.queue[0].ahead))
	if s.busy >= limit {
		return false
	}
	s.busy++
	return true
}

// boxQueue implements heap.Interface over queued boxes: due steps before
// model phases run ahead, each class by due time, ties in push order.
type boxQueue []*boxRun

func (q boxQueue) Len() int { return len(q) }
func (q boxQueue) Less(i, j int) bool {
	if q[i].ahead != q[j].ahead {
		return q[j].ahead
	}
	if c := q[i].due.Compare(q[j].due); c != 0 {
		return c < 0
	}
	return q[i].seq < q[j].seq
}
func (q boxQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos, q[j].pos = i+1, j+1
}
func (q *boxQueue) Push(x any) {
	br := x.(*boxRun)
	*q = append(*q, br)
	br.pos = len(*q)
}
func (q *boxQueue) Pop() any {
	old := *q
	br := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	br.pos = 0
	return br
}
