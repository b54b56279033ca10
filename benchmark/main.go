// Command benchmark is the repo's end-to-end benchmark: it boots the
// production internal/serve stack in-process behind a real HTTP
// server, drives it with four workloads, checks that what it computed
// is correct, and reports end-to-end metrics (tracing off) and an
// outside-in per-layer waterfall (a separate traced run).
//
//	go run ./benchmark -seed 1                       all workloads, untraced then traced
//	go run ./benchmark -workload steady -seconds 10  one workload, time-bound (what the driver runs)
//	go run ./benchmark -compare A.json B.json        hold two -out records to the bounds
//
// BENCHMARK.json declares the command, the workloads and the metrics;
// README.md explains them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// header records where and how a result was measured.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Start      string `json:"start"`
}

func newHeader(seed int64) header {
	h := header{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Seed:       seed,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
	// The driver's checkout is not a git repository; there the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// record is the full result of one run of one workload.
type record struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Header    header   `json:"header"`
	Boxes     int      `json:"boxes"`
	VMs       int      `json:"vms"`
	Rounds    int      `json:"rounds"` // backfill cycles, rollover rounds, steady ticks as run
	Plans     int      `json:"plans"`
	WallS     float64  `json:"measured_wall_s"` // the window: set-up, gate and probes excluded
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Digest    string   `json:"plan_digest"`
	Metrics   values   `json:"metrics"`
}

// result is the line the driver reads: the last line of stdout.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload executes one workload in this process and returns its
// record. spansOut, when set, receives the traced run's spans as JSONL.
func runWorkload(ctx context.Context, sp spec, opt options, spansOut string) (*record, error) {
	r := &run{sp: sp, opt: opt}
	hdr := newHeader(opt.seed)
	if err := r.execute(ctx); err != nil {
		return nil, err
	}
	rec := &record{
		Workload: sp.name, Traced: opt.traced, Header: hdr,
		Boxes: len(r.f.boxes), VMs: r.f.vms, Rounds: r.rounds,
		WallS:     r.wall.Seconds(),
		Attempted: r.attempted(), Failed: r.failed(),
		Digest: r.digest(),
	}
	rec.Plans, _, _ = r.planTotals()
	if opt.traced {
		budget := 15 * time.Second
		if opt.seconds > 0 {
			budget = time.Duration(opt.seconds / 2 * float64(time.Second))
		}
		rec.Metrics = r.layerValues(r.probe(ctx, budget))
		if spansOut != "" {
			if err := writeSpans(spansOut, r.rec.spans); err != nil {
				return nil, err
			}
		}
	} else {
		rec.Metrics = r.endToEndValues()
	}
	rec.Problems = r.problems
	rec.Correct = len(r.problems) == 0 && rec.Failed == 0
	return rec, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes the record's header and one `workload name unit value
// n` line per metric.
func (rec *record) print(w io.Writer) {
	h := rec.Header
	mode := "untraced"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s %s: commit=%s %s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d start=%s\n",
		rec.Workload, mode, h.Commit, h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.Seed, h.Start)
	fmt.Fprintf(w, "# %s %s: boxes=%d vms=%d rounds=%d plans=%d attempted=%d failed=%d plan_digest=%s\n",
		rec.Workload, mode, rec.Boxes, rec.VMs, rec.Rounds, rec.Plans, rec.Attempted, rec.Failed, rec.Digest)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %.6g %d\n", rec.Workload, name, v.Unit, v.Value, v.N)
	}
	if v, ok := rec.Metrics["loadgen.late_p99_ms"]; ok && !rec.Traced && v.Value > 20 {
		fmt.Fprintf(w, "# %s VOID: the load generator ran %.1f ms late at p99 (limit 20 ms)\n", rec.Workload, v.Value)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "# %s INCORRECT: %s\n", rec.Workload, p)
	}
}

// driverLine is the contract's last line: exactly the end-to-end
// metrics of an untraced run, exactly the per-layer ones of a traced.
func (rec *record) driverLine() ([]byte, error) {
	table := endToEnd
	if rec.Traced {
		table = perLayer
	}
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]value{}}
	for _, m := range table {
		v, ok := rec.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s did not report %s", rec.Workload, m.Name)
		}
		res.Metrics[m.Name] = value{Value: v.Value, Unit: v.Unit}
	}
	return json.Marshal(res)
}

const recordPrefix = "#record "

// report is what -out writes and -compare reads.
type report struct {
	Header  header    `json:"header"`
	Records []*record `json:"records"`
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child runs one workload in a fresh process (clean heap, clean
// process-global obs.Default() counters), relays its lines, and
// returns the record it printed.
func child(ctx context.Context, exe string, w io.Writer, args ...string) (*record, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	var rec *record
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	for i, line := range lines {
		if js, ok := strings.CutPrefix(line, recordPrefix); ok {
			rec = new(record)
			if err := json.Unmarshal([]byte(js), rec); err != nil {
				return nil, fmt.Errorf("child %v: bad record: %w", args, err)
			}
			continue
		}
		if i < len(lines)-1 { // the last line is the driver's, not ours
			fmt.Fprintln(w, line)
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("child %v printed no record: %v", args, runErr)
	}
	return rec, nil
}

// runAll runs every workload untraced, then traced on the same script,
// each in its own process, and cross-checks the two.
func runAll(ctx context.Context, w io.Writer, seed int64, seconds float64, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := &report{Header: newHeader(seed)}
	var bad []string
	for _, sp := range specs {
		common := []string{"-workload", sp.name, "-seed", fmt.Sprint(seed)}
		un, err := child(ctx, exe, w, append(common, "-trace", "0", "-seconds", fmt.Sprint(seconds))...)
		if err != nil {
			return err
		}
		// The traced run replays exactly the rounds the untraced run made.
		tr, err := child(ctx, exe, w, append(common, "-trace", "1", "-rounds", fmt.Sprint(un.Rounds))...)
		if err != nil {
			return err
		}
		tr.Metrics.set("trace.overhead_frac", (tr.WallS-un.WallS)/un.WallS, 0)
		fmt.Fprintf(w, "%s trace.overhead_frac ratio %.6g 0\n", sp.name, tr.Metrics["trace.overhead_frac"].Value)
		if un.Digest != tr.Digest {
			bad = append(bad, fmt.Sprintf("%s: plan_digest %s untraced, %s traced", sp.name, un.Digest, tr.Digest))
		}
		for _, rec := range []*record{un, tr} {
			if !rec.Correct {
				bad = append(bad, fmt.Sprintf("%s: correctness gate failed", sp.name))
			}
		}
		rep.Records = append(rep.Records, un, tr)
	}
	if outPath != "" {
		if err := writeReport(outPath, rep); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (default: all, each untraced then traced in child processes)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "measure for about this long; 0 runs each workload's fixed script")
		rounds   = flag.Int("rounds", 0, "with -workload: run exactly this many rounds (cycles, ticks)")
		traced   = flag.Int("trace", 0, "with -workload: 1 runs the traced variant and reports per-layer metrics")
		out      = flag.String("out", "", "write the full records as JSON to this file")
		spans    = flag.String("spans", "", "with -workload -trace 1: write the spans as JSONL to this file")
		compare  = flag.Bool("compare", false, "compare two -out files (A.json B.json) against the bounds; exit 1 if B is worse")
	)
	flag.Parse()
	ctx := context.Background()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two files: A.json B.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}

	case *workload == "":
		if err := runAll(ctx, os.Stdout, *seed, *seconds, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}

	default:
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		opt := options{seed: *seed, seconds: *seconds, rounds: *rounds, traced: *traced != 0}
		rec, err := runWorkload(ctx, sp, opt, *spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		rec.print(os.Stdout)
		if *out != "" {
			if err := writeReport(*out, &report{Header: rec.Header, Records: []*record{rec}}); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
		}
		js, err := json.Marshal(rec)
		if err == nil {
			fmt.Println(recordPrefix + string(js))
			js, err = rec.driverLine()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(js))
		if !rec.Correct {
			os.Exit(1)
		}
	}
}
