package main

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The load generator. Hygiene rules it keeps:
//   - one keep-alive connection per client goroutine, and never more
//     client goroutines than the spec's two;
//   - every response is read to the end, so the connection is reused;
//   - open-loop sends follow an absolute schedule (due offsets from the
//     phase start, never sleep(interval)); a late send is sent and its
//     lateness reported, never skipped, and its latency counts from
//     when it was due;
//   - bodies are encoded and op slices sized before the window, so the
//     harness allocates little while it measures;
//   - no retries: internal/serve never answers 429, so any non-200 is
//     a failure.

type opKind uint8

const (
	opPost   opKind = iota // POST /v1/ingest
	opPlan                 // GET /v1/boxes/{id}/plan
	opWhatIf               // GET /v1/boxes/{id}/whatif
)

// closedLoop as an op's due offset sends it as soon as the client's
// previous response is in, and times it from the send.
const closedLoop = time.Duration(-1)

// op is one scripted request and, after the phase ran, its outcome.
type op struct {
	kind opKind
	body *body         // opPost
	path string        // opPlan, opWhatIf
	due  time.Duration // offset from the phase start, or closedLoop

	lat     time.Duration // response complete minus due time (or send)
	late    time.Duration // send minus due time (open loop only)
	status  int           // 0 for a transport error
	boxErrs int           // per-box errors inside a 200 ingest response
}

// ok reports whether the request fully succeeded.
func (o *op) ok() bool { return o.status == http.StatusOK && o.boxErrs == 0 }

// client owns one keep-alive connection to the server under test.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer
	rec  *recorder
}

func newClient(base string, rec *recorder) *client {
	return &client{
		base: base,
		rec:  rec,
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   60 * time.Second,
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends the op and records status and per-box errors.
func (c *client) do(ctx context.Context, o *op) {
	var (
		req  *http.Request
		err  error
		name = "client.get"
	)
	if o.kind == opPost {
		name = "client.post"
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/ingest", bytes.NewReader(o.body.data))
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+o.path, nil)
	}
	if err != nil {
		return // status stays 0: counted as failed
	}
	id := c.rec.begin(name)
	defer c.rec.end(id)
	resp, err := c.http.Do(req)
	if err != nil {
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return
	}
	o.status = resp.StatusCode
	if o.kind == opPost && o.status == http.StatusOK {
		o.boxErrs = intAfter(c.buf.Bytes(), `"failed":`)
	}
}

// intAfter parses the non-negative integer following key, or -1. The
// ingest response is {"accepted":N,"failed":M,"boxes":[...]}; scanning
// for the one field spares the window a JSON decode per response.
func intAfter(b []byte, key string) int {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return -1
	}
	n, digits := 0, 0
	for _, ch := range b[i+len(key):] {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + int(ch-'0')
		digits++
	}
	if digits == 0 {
		return -1
	}
	return n
}

// runOps sends one client's ops in order against the phase start.
func (c *client) runOps(ctx context.Context, start time.Time, ops []op) {
	for i := range ops {
		o := &ops[i]
		from := time.Now()
		if o.due != closedLoop {
			due := start.Add(o.due)
			if d := due.Sub(from); d > 0 {
				time.Sleep(d)
			}
			o.late = max(time.Since(due), 0)
			from = due
		}
		c.do(ctx, o)
		o.lat = time.Since(from)
	}
}

// runPhase runs every client's op list concurrently, one goroutine and
// one connection per list, and returns the phase start the due offsets
// count from.
func runPhase(ctx context.Context, clients []*client, lists [][]op) time.Time {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range lists {
		wg.Add(1)
		go func(c *client, ops []op) {
			defer wg.Done()
			c.runOps(ctx, start, ops)
		}(clients[i], lists[i])
	}
	wg.Wait()
	return start
}

// runPhaseTraced replays the same lists from one goroutine with no
// pacing: ops go out one at a time in due order (closed-loop lists
// alternate between clients), and after each response the harness runs
// the scheduling passes the request woke, so that every span nests.
// Latencies are taken from the send; lateness has no meaning here.
func runPhaseTraced(ctx context.Context, st *stack, c *client, lists [][]op) time.Time {
	type ref struct{ list, idx int }
	var order []ref
	for l := range lists {
		for i := range lists[l] {
			order = append(order, ref{l, i})
		}
	}
	// A phase is either all open loop (order by due time) or all closed
	// loop (the lists take turns); the stable sort keeps list order for
	// equal keys.
	key := func(r ref) time.Duration {
		if d := lists[r.list][r.idx].due; d != closedLoop {
			return d
		}
		return time.Duration(r.idx)
	}
	sort.SliceStable(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })
	start := time.Now()
	for _, r := range order {
		o := &lists[r.list][r.idx]
		st.rec.nextRequest()
		from := time.Now()
		c.do(ctx, o)
		o.lat = time.Since(from)
		st.syncNotified(ctx)
	}
	return start
}

// tally is what a set of finished ops adds up to.
type tally struct {
	posts, gets int
	bytesOut    int
	samples     int // VM-samples in accepted bodies
	entries     int // box entries in accepted bodies: one store append each
	ticks       int // ticks those entries carried
	non200      int
	boxErrs     int
	postLat     []time.Duration
	planLat     []time.Duration
	late        []time.Duration
}

// add folds a phase's ops into the tally.
func (t *tally) add(lists [][]op) {
	for l := range lists {
		for i := range lists[l] {
			o := &lists[l][i]
			if o.due != closedLoop {
				t.late = append(t.late, o.late)
			}
			if o.status != http.StatusOK {
				t.non200++
			}
			switch o.kind {
			case opPost:
				t.posts++
				t.bytesOut += len(o.body.data)
				t.postLat = append(t.postLat, o.lat)
				if o.boxErrs != 0 {
					t.boxErrs++
				}
				if o.ok() {
					t.samples += o.body.samples
					t.entries += o.body.hi - o.body.lo
					t.ticks += (o.body.hi - o.body.lo) * o.body.ticks
				}
			case opPlan:
				t.gets++
				t.planLat = append(t.planLat, o.lat)
			case opWhatIf:
				t.gets++
			}
		}
	}
}

// failed counts request-level failures; a failed request also misses
// every latency limit, which is why callers report it beside the
// percentiles instead of dropping the sample.
func (t *tally) failed() int { return t.non200 + t.boxErrs }
