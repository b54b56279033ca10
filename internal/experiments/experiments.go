// Package experiments regenerates every table and figure of the
// paper's evaluation on the synthetic trace substrate and the testbed
// simulator. Each FigN function returns a structured result plus a
// renderable Table carrying the paper's published numbers alongside
// the measured ones, so EXPERIMENTS.md and cmd/atmbench can report
// paper-vs-measured without re-deriving anything.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"atm/internal/trace"
)

// Options scales an experiment run. The paper's full trace is 6000
// boxes over 7 days; the defaults keep a laptop run in seconds while
// preserving every per-box statistic (boxes are independent).
type Options struct {
	// Boxes is the number of synthetic boxes (default 200).
	Boxes int
	// Seed drives trace generation (default 1).
	Seed int64
	// Days is the trace length (default 7; characterization figures
	// use day 1 only, mirroring the paper's April 3 snapshot).
	Days int
	// SamplesPerDay is the sampling resolution (default 96).
	SamplesPerDay int
	// Workers bounds the worker pool the experiment drivers fan out
	// on; <= 0 (default) uses one worker per core.
	Workers int
	// Reps is the number of interleaved timing pairs ObsBench runs;
	// <= 0 selects 3.
	Reps int
}

func (o Options) withDefaults() Options {
	if o.Boxes == 0 {
		o.Boxes = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Days == 0 {
		o.Days = 7
	}
	if o.SamplesPerDay == 0 {
		o.SamplesPerDay = 96
	}
	return o
}

// genTrace builds the experiment trace for the options.
func (o Options) genTrace() *trace.Trace {
	return trace.Generate(trace.GenConfig{
		Boxes:         o.Boxes,
		Days:          o.Days,
		SamplesPerDay: o.SamplesPerDay,
		Seed:          o.Seed,
	})
}

// Table is a renderable experiment report.
type Table struct {
	// Title names the figure/table being reproduced.
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds formatted cells.
	Rows [][]string
	// Notes carries free-form lines (paper reference values,
	// caveats).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the table as aligned plain text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString(t.Title + "\n")
	sb.WriteString(strings.Repeat("=", len(t.Title)) + "\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && utf8.RuneCountInString(c) > widths[i] {
				widths[i] = utf8.RuneCountInString(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) && utf8.RuneCountInString(c) < widths[i] {
				sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	for i, wd := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", wd))
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("  " + n + "\n")
	}
	sb.WriteString("\n")
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		return err.Error()
	}
	return sb.String()
}

func pct(v float64) string  { return fmt.Sprintf("%.1f%%", 100*v) }
func num(v float64) string  { return fmt.Sprintf("%.2f", v) }
func num1(v float64) string { return fmt.Sprintf("%.1f", v) }
