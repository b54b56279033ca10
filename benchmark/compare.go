package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// worse returns by how much b is worse than a, as a share of a (an
// absolute difference when a is 0): positive is worse.
func worse(m metric, a, b float64) float64 {
	d := b - a
	if m.Better == "higher" {
		d = -d
	}
	if a != 0 {
		d /= a
	}
	return d
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse B is and the bound, and reports whether every metric
// of B stays within its bound. The plan digests of the two must agree
// when they ran the same script.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	untraced := func(rep *report) map[string]*record {
		out := map[string]*record{}
		for _, rec := range rep.Records {
			if !rec.Traced {
				out[rec.Workload] = rec
			}
		}
		return out
	}
	ra, rb := untraced(a), untraced(b)
	ok := true
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, sp := range specs {
		x, y := ra[sp.name], rb[sp.name]
		if x == nil || y == nil {
			continue
		}
		for _, m := range append(append([]metric(nil), endToEnd...), endToEndExtra...) {
			va, inA := x.Metrics[m.Name]
			vb, inB := y.Metrics[m.Name]
			if !inA || !inB {
				continue
			}
			d := worse(m, va.Value, vb.Value)
			verdict := ""
			if d > m.Bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				sp.name, m.Name, va.Value, vb.Value, 100*d, 100*m.Bound, verdict)
		}
		if x.Header.Seed == y.Header.Seed && x.Rounds == y.Rounds && x.Digest != y.Digest {
			fmt.Fprintf(w, "%-15s plan_digest differs: %s vs %s  EXCEEDS\n", sp.name, x.Digest, y.Digest)
			ok = false
		}
	}
	return ok, nil
}
