package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code at a
// seam the program's public API offers. Times are nanoseconds since
// the recorder was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Req    int    `json:"req"`    // request the span belongs to
}

// maxSpans bounds the recorder's memory (40 B a span); spans past it
// are counted as dropped, which voids the run.
const maxSpans = 4 << 20

// recorder keeps the spans of a traced run in memory. The traced run
// sends one request at a time and drives the engine from the same
// goroutine, so spans nest strictly in time and one stack gives every
// span its parent. The server handler runs on another goroutine while
// the harness waits for the response; the mutex orders the two.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	armed   bool // spans are recorded only inside the measured window
	spans   []span
	stack   []int
	req     int
	dropped int
	fitErrs int // temporal-model fits that returned an error
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// arm switches recording on or off: set-up and the stage probes call
// the same decorated models and backend, and must leave no spans.
func (r *recorder) arm(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.armed = on
	r.mu.Unlock()
}

func (r *recorder) fitFailed() {
	r.mu.Lock()
	r.fitErrs++
	r.mu.Unlock()
}

// nextRequest starts a new request id; spans begun until the next call
// carry it.
func (r *recorder) nextRequest() {
	r.mu.Lock()
	r.req++
	r.mu.Unlock()
}

// begin opens a span under the innermost open one and returns its
// handle (-1 when dropped). A nil recorder records nothing, so call
// sites need no tracing-on check.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.armed {
		return -1
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: r.req})
	r.stack = append(r.stack, id)
	r.spans[id].Start = int64(time.Since(r.epoch))
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
}

// layerTime is the time spent under one span name.
type layerTime struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // total minus the part child spans cover
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it,
// so overlapping children are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.count++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = lt
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
