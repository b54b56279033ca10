package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"atm/internal/obs"
)

// counters is a read-only snapshot of the process-global obs.Default()
// registry, taken through its Prometheus text exposition — the same
// surface /metrics serves. Keys are series as exposed, labels and all
// (`atm_dtw_pairs_total{outcome="pruned"}`).
type counters map[string]float64

func readCounters() counters {
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = obs.Default().WritePrometheus(&buf)
	out := make(counters)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// family sums every series of a metric family (all label values).
func (c counters) family(name string) float64 {
	sum := 0.0
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta returns how much the family grew between two snapshots.
func delta(before, after counters, name string) float64 {
	return after.family(name) - before.family(name)
}

// deltaSeries is delta for one labelled series.
func deltaSeries(before, after counters, series string) float64 {
	return after[series] - before[series]
}
