package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toySpecs are the four workloads shrunk to run in a second each: 8
// samples a day, 16 boxes, a 1-epoch MLP for the paper model.
func toySpecs() []spec {
	var out []spec
	for _, sp := range specs {
		sp.sc = toyScale
		sp.boxes = 16
		sp.mlpEpochs = 1
		switch sp.kind {
		case kindBackfill:
			sp.rounds, sp.chunk = 2, 8
		case kindRollover:
			sp.rounds, sp.maxRounds, sp.chunk = 2, 2, 3
		case kindSteady:
			sp.rounds, sp.maxRounds, sp.tick = 8, 8, 5*time.Millisecond
		}
		out = append(out, sp)
	}
	return out
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload untraced and traced at toy scale and
// checks the contract of a run: the gate passes, every declared metric
// is reported under a well-formed name, the driver's line carries
// exactly the declared set, and the traced run computes the plans the
// untraced run computed.
func TestSmoke(t *testing.T) {
	for _, sp := range toySpecs() {
		t.Run(sp.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				rec, err := runWorkload(context.Background(), sp, options{seed: 7, traced: traced}, "")
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct {
					t.Errorf("traced=%v: gate failed: %v", traced, rec.Problems)
				}
				if rec.Attempted < 1 || rec.Failed != 0 {
					t.Errorf("traced=%v: attempted %d, failed %d", traced, rec.Attempted, rec.Failed)
				}
				for name := range rec.Metrics {
					if !metricName.MatchString(name) || len(name) > 64 {
						t.Errorf("metric name %q", name)
					}
				}
				table := endToEnd
				if traced {
					table = perLayer
				}
				line, err := rec.driverLine()
				if err != nil {
					t.Fatal(err)
				}
				var res result
				if err := json.Unmarshal(line, &res); err != nil {
					t.Fatal(err)
				}
				if len(res.Metrics) != len(table) {
					t.Errorf("traced=%v: driver line has %d metrics, table %d", traced, len(res.Metrics), len(table))
				}
				for _, m := range table {
					if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("traced=%v: %s reported as %+v", traced, m.Name, v)
					}
				}
				if !traced {
					for _, m := range endToEnd {
						if rec.Metrics[m.Name].Value == 0 {
							t.Errorf("end-to-end metric %s is 0", m.Name)
						}
					}
					for _, name := range extrasOf(sp.kind) {
						if _, ok := rec.Metrics[name]; !ok {
							t.Errorf("%s did not report %s", sp.name, name)
						}
					}
				}
				if sp.kind == kindBackfill && rec.Plans != 0 {
					t.Errorf("backfill published %d plans", rec.Plans)
				}
				if sp.kind != kindBackfill && rec.Plans == 0 {
					t.Errorf("%s published no plan", sp.name)
				}
				digests = append(digests, rec.Digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("plan_digest %s untraced, %s traced", digests[0], digests[1])
			}
		})
	}
}

// extrasOf lists the workload-specific end-to-end metrics a workload of
// the kind must report.
func extrasOf(k kind) []string {
	out := []string{"ingest_p50_ms", "ingest_p90_ms", "ingest_p99_ms", "failed_share"}
	if k != kindBackfill {
		out = append(out, "plan_fresh_p50_ms", "plan_fresh_p90_ms", "plan_fresh_p99_ms", "tickets_after", "tickets_before")
	}
	if k == kindRollover {
		out = append(out, "plans_per_s")
	}
	if k == kindSteady {
		out = append(out, "plan_get_p50_ms", "plan_get_p99_ms")
	}
	return out
}

// TestManifest keeps BENCHMARK.json and the tables in this package in
// step: same workloads, same metrics, same units, directions, bounds.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if strings.Join(man.Command, " ") != "go run ./benchmark" || len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", man.Command, man.Paths)
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d specs", len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: declared %q, spec %q (or their why differs)", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, declared, table []metric) {
		if len(declared) != len(table) {
			t.Errorf("%s: %d declared, %d in the table", kind, len(declared), len(table))
			return
		}
		for i := range table {
			if declared[i] != table[i] {
				t.Errorf("%s %d: declared %+v, table %+v", kind, i, declared[i], table[i])
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd)
	same("per_layer", man.PerLayer, perLayer)
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append(append([]metric(nil), endToEnd...), perLayer...), endToEndExtra...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v above 0.25", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is not declared")
	}
}

func TestTail(t *testing.T) {
	ramp := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n      int
		target float64
		want   time.Duration // the value is also its 1-based rank
	}{
		{1000, 0.99, 990}, // exactly 10 beyond: p99 stands
		{2000, 0.99, 1980},
		{999, 0.99, 989}, // 9 beyond p99: fall back to the rank with 10 beyond
		{200, 0.99, 190}, // p95
		{100, 0.90, 90},  // 10 beyond: p90 stands
		{100, 0.99, 90},
		{40, 0.90, 30},
		{15, 0.99, 8}, // too few for any tail: the median
		{1, 0.99, 1},
	} {
		got, q := tail(ramp(tc.n), tc.target)
		if got != tc.want {
			t.Errorf("tail(n=%d, %v) = rank %d, want %d", tc.n, tc.target, got, tc.want)
		}
		if beyond := tc.n - int(got); beyond < 10 && int(got) > (tc.n+1)/2 {
			t.Errorf("tail(n=%d, %v) leaves %d samples beyond", tc.n, tc.target, beyond)
		}
		if want := float64(tc.want) / float64(tc.n); q != want {
			t.Errorf("tail(n=%d, %v) reports percentile %v, want %v", tc.n, tc.target, q, want)
		}
	}
	if d, q := tail(nil, 0.99); d != 0 || q != 0 {
		t.Errorf("tail of nothing = %v, %v", d, q)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		// Two children overlapping on [30, 40): covered [10, 60) = 50.
		{Name: "kid", Start: 10, End: 40, Parent: 0},
		{Name: "kid", Start: 30, End: 60, Parent: 0},
		// A grandchild is its parent's business, not the root's.
		{Name: "grandkid", Start: 15, End: 25, Parent: 1},
		// A child contained in an earlier one adds nothing.
		{Name: "kid", Start: 45, End: 50, Parent: 0},
		// A child running past its parent is clipped to it: [90, 100).
		{Name: "late", Start: 90, End: 120, Parent: 0},
		{Name: "alone", Start: 200, End: 230, Parent: -1},
	}
	got := selfTimes(spans)
	for name, want := range map[string]layerTime{
		"root":     {count: 1, total: 100, self: 40},
		"kid":      {count: 3, total: 65, self: 55},
		"grandkid": {count: 1, total: 10, self: 10},
		"late":     {count: 1, total: 30, self: 30},
		"alone":    {count: 1, total: 30, self: 30},
	} {
		if got[name] != want {
			t.Errorf("%s: %+v, want %+v", name, got[name], want)
		}
	}
}

// TestRecorder checks parent links, request ids, and that a disarmed or
// nil recorder records nothing.
func TestRecorder(t *testing.T) {
	var none *recorder
	none.end(none.begin("x")) // must not panic
	rec := newRecorder()
	rec.end(rec.begin("setup"))
	rec.arm(true)
	rec.nextRequest()
	a := rec.begin("client.post")
	b := rec.begin("serve.ingest")
	rec.end(b)
	rec.end(a)
	c := rec.begin("engine.pass")
	rec.end(c)
	if len(rec.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(rec.spans))
	}
	if rec.spans[b].Parent != a || rec.spans[a].Parent != -1 || rec.spans[c].Parent != -1 {
		t.Errorf("parents: %+v", rec.spans)
	}
	if rec.spans[b].Req != 1 || rec.spans[b].End < rec.spans[b].Start {
		t.Errorf("span %+v", rec.spans[b])
	}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, rec.spans); err != nil || strings.Count(buf.String(), "\n") != 3 {
		t.Errorf("JSONL: %v, %q", err, buf.String())
	}
}

// TestLateSender pins the open-loop rule: a request the sender could
// not send on time is still sent, its lateness is reported, and its
// latency counts from when it was due.
func TestLateSender(t *testing.T) {
	const hold = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(hold)
		w.Write([]byte(`{"accepted":1,"failed":0,"boxes":[]}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, nil)
	defer c.close()
	b := body{data: []byte(`{}`)}
	ops := []op{
		{kind: opPost, body: &b, due: 0},
		{kind: opPost, body: &b, due: 10 * time.Millisecond}, // due while the first is in flight
		{kind: opPost, body: &b, due: closedLoop},
	}
	c.runOps(context.Background(), time.Now(), ops)
	for i := range ops {
		if !ops[i].ok() {
			t.Fatalf("op %d: status %d, box errors %d", i, ops[i].status, ops[i].boxErrs)
		}
	}
	if late := ops[1].late; late < hold-15*time.Millisecond {
		t.Errorf("second op sent %v late, want about %v", late, hold-10*time.Millisecond)
	}
	if lat := ops[1].lat; lat < 2*hold-15*time.Millisecond {
		t.Errorf("second op took %v from its due time, want at least %v", lat, 2*hold-10*time.Millisecond)
	}
	if ops[2].late != 0 || ops[2].lat < hold || ops[2].lat > 2*hold {
		t.Errorf("closed-loop op: late %v, latency %v, want 0 and about %v", ops[2].late, ops[2].lat, hold)
	}
	var tl tally
	tl.add([][]op{ops})
	if tl.posts != 3 || len(tl.late) != 2 || tl.failed() != 0 {
		t.Errorf("tally %+v", tl)
	}
}

func TestIntAfter(t *testing.T) {
	for in, want := range map[string]int{
		`{"accepted":384,"failed":0,"boxes":[]}`: 0,
		`{"accepted":0,"failed":16,"boxes":[]}`:  16,
		`{"error":"bad body"}`:                   -1,
		`{"failed":}`:                            -1,
	} {
		if got := intAfter([]byte(in), `"failed":`); got != want {
			t.Errorf("intAfter(%s) = %d, want %d", in, got, want)
		}
	}
}

// TestFleet pins what the spread of the metrics across seeds rests on:
// the fleet's shape does not depend on the seed, its contents do.
func TestFleet(t *testing.T) {
	a, b := newFleet(1, 48, 2, 8), newFleet(2, 48, 2, 8)
	if a.vms != b.vms {
		t.Errorf("seeds 1 and 2 give %d and %d VMs", a.vms, b.vms)
	}
	differ := false
	for i := range a.boxes {
		if len(a.boxes[i].VMs) != len(b.boxes[i].VMs) || a.boxes[i].ID != b.boxes[i].ID {
			t.Fatalf("box %d: shape depends on the seed", i)
		}
		differ = differ || a.boxes[i].VMs[0].CPU[3] != b.boxes[i].VMs[0].CPU[3]
	}
	if !differ {
		t.Error("seeds 1 and 2 give the same usage")
	}
	if mean := float64(a.vms) / 48; mean < 9 || mean > 11 {
		t.Errorf("mean consolidation %v, want about 10", mean)
	}
	again := newFleet(1, 48, 2, 8)
	if !bytes.Equal(a.encode(0, 16, 0, 4, true).data, again.encode(0, 16, 0, 4, true).data) {
		t.Error("the same seed gives different bodies")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate, tickets float64, digest string) string {
		vs := values{}
		vs.set("ingest_samples_per_s", rate, 0)
		vs.set("tickets_after", tickets, 0)
		vs.set("failed_share", 0, 0)
		path := filepath.Join(dir, name)
		rep := &report{Records: []*record{{Workload: "rollover_lean", Rounds: 3, Digest: digest, Metrics: vs}}}
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 500, "d1")
	for _, tc := range []struct {
		name          string
		rate, tickets float64
		digest        string
		ok            bool
	}{
		{"same", 1000, 500, "d1", true},
		{"faster", 2000, 500, "d1", true},
		{"within", 800, 500, "d1", true},
		{"slower", 700, 500, "d1", false},
		{"worse plans", 1000, 520, "d1", false},
		{"other plans", 1000, 500, "d2", false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write("b.json", tc.rate, tc.tickets, tc.digest))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
}
