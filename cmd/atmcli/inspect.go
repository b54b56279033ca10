package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"atm/internal/obs"
	"atm/internal/serve"
)

// inspectOpts parameterizes the inspect subcommand.
type inspectOpts struct {
	// daemon is the atmd base URL (required).
	daemon string
	// id is the box to inspect (required).
	id string
	// timeout bounds the single debug fetch.
	timeout time.Duration
}

// inspectRun fetches GET /v1/boxes/{id}/debug from a running daemon
// and renders the whole decision story for one box: the latest plan,
// the research/refit decision and its reason, the forecast scorecard,
// the recent decision events, and the span tree of the last step's
// trace.
func inspectRun(opts inspectOpts) {
	if opts.daemon == "" {
		fmt.Fprintln(os.Stderr, "atmcli: inspect requires -daemon")
		os.Exit(2)
	}
	if opts.id == "" {
		fmt.Fprintln(os.Stderr, "atmcli: inspect requires -id")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.timeout)
	defer cancel()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		opts.daemon+"/v1/boxes/"+opts.id+"/debug", nil)
	if err != nil {
		fail(err)
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		fail(fmt.Errorf("daemon returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
	}
	var dbg serve.DebugResponse
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		fail(fmt.Errorf("decode debug for %s: %w", opts.id, err))
	}
	printDebug(os.Stdout, &dbg)
}

// printDebug renders one box's debug snapshot as an operator-facing
// report. Split from inspectRun so tests can feed it a canned payload.
func printDebug(w io.Writer, dbg *serve.DebugResponse) {
	fmt.Fprintf(w, "box %s (shard %d): %d steps, %s\n", dbg.Box, dbg.Shard, dbg.Steps, dbg.State)
	if dbg.LastErr != "" {
		fmt.Fprintf(w, "last error: %s\n", dbg.LastErr)
	}

	if p := dbg.Plan; p != nil {
		fmt.Fprintf(w, "\nplan (step %d, pass %d):\n", p.Step, p.Pass)
		fmt.Fprintf(w, "  tickets %d -> %d, MAPE %.3f, %d VMs, degraded=%v\n",
			p.TicketsBefore, p.TicketsAfter, p.MeanMAPE, len(p.CPUSizes), p.Degraded)
		mode := "refit"
		if dbg.Decision.Research {
			mode = "research"
		}
		fmt.Fprintf(w, "  decision: %s (%s), model age %d\n", mode, dbg.Decision.Reason, dbg.Decision.Age)
		if p.BlendReason != "" {
			fmt.Fprintf(w, "  trust: λ=%.2f (%s)\n", p.Lambda, p.BlendReason)
		}
		if p.TraceID != "" {
			fmt.Fprintf(w, "  trace: %s\n", p.TraceID)
		}
	} else {
		fmt.Fprintln(w, "\nno plan yet (box still filling its first window)")
	}

	if c := dbg.Scorecard; c != nil {
		fmt.Fprintf(w, "\nforecast scorecard:\n")
		fmt.Fprintf(w, "  scored steps %d (degraded %d), MAPE last %.3f rolling %.3f over %d\n",
			c.Steps, c.DegradedSteps, c.LastMAPE, c.RollingMAPE, c.RollingN)
		fmt.Fprintf(w, "  tickets predicted %d realized %d\n", c.TicketsPredicted, c.TicketsRealized)
		fmt.Fprintf(w, "  provision units/window: over %.1f under %.1f (totals %.1f / %.1f)\n",
			c.LastOverUnits, c.LastUnderUnits, c.OverUnits, c.UnderUnits)
	}

	if len(dbg.Events) > 0 {
		fmt.Fprintf(w, "\nrecent events:\n")
		for _, ev := range dbg.Events {
			line := fmt.Sprintf("  %s %-11s step %d shard %d", ev.Time.Format("15:04:05"), ev.Type, ev.Step, ev.Shard)
			if ev.Reason != "" {
				line += " " + ev.Reason
			}
			if ev.Type == "plan" {
				line += fmt.Sprintf(" (tickets %d->%d, Δ%d VMs)", ev.TicketsBefore, ev.TicketsAfter, ev.DeltaVMs)
				if ev.BlendReason != "" {
					line += fmt.Sprintf(" λ=%.2f/%s", ev.Lambda, ev.BlendReason)
				}
			}
			if ev.Err != "" {
				line += " err=" + ev.Err
			}
			fmt.Fprintln(w, line)
		}
	}

	if len(dbg.Spans) > 0 {
		fmt.Fprintf(w, "\nspan tree:\n")
		printSpanTree(w, dbg.Spans)
	}
}

// printSpanTree renders spans as an indented parent→child tree,
// siblings ordered by start time. Spans whose parent is missing from
// the set (recycled out of the ring) print as roots.
func printSpanTree(w io.Writer, spans []obs.SpanData) {
	children := map[string][]obs.SpanData{}
	ids := map[string]bool{}
	for _, s := range spans {
		ids[s.SpanID] = true
	}
	var roots []obs.SpanData
	for _, s := range spans {
		if s.ParentID != "" && ids[s.ParentID] {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}
	byStart := func(set []obs.SpanData) {
		sort.Slice(set, func(a, b int) bool { return set[a].Start.Before(set[b].Start) })
	}
	byStart(roots)
	var walk func(s obs.SpanData, depth int)
	walk = func(s obs.SpanData, depth int) {
		fmt.Fprintf(w, "  %*s%s %.3fms", 2*depth, "", s.Name, float64(s.DurationNS)/1e6)
		attrs := append(obs.Attrs(nil), s.Attrs...)
		sort.Slice(attrs, func(a, b int) bool { return attrs[a].Key < attrs[b].Key })
		for _, at := range attrs {
			fmt.Fprintf(w, " %s=%v", at.Key, at.Value)
		}
		fmt.Fprintln(w)
		kids := children[s.SpanID]
		byStart(kids)
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}
