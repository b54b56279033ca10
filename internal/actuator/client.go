package actuator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"atm/internal/obs"
)

// DefaultTimeout bounds daemon calls when the caller does not supply
// an http.Client. The controller drives many hypervisor daemons in a
// loop; one hung atmd must not wedge the whole resizing round, which
// is exactly what the previous http.DefaultClient fallback (no
// timeout) allowed.
const DefaultTimeout = 10 * time.Second

// Client-side actuation metrics: per-operation call counts by outcome
// and call latency. A rising error rate or latency tail here is the
// controller's first signal that a hypervisor daemon is unhealthy.
var (
	clientCalls = obs.Default().CounterVec("atm_actuator_requests_total",
		"Actuator client calls by operation and outcome.", "op", "outcome")
	clientSeconds = obs.Default().HistogramVec("atm_actuator_request_seconds",
		"Actuator client call latency in seconds, by operation.", nil, "op")
)

// Client talks to a hypervisor daemon's cgroup API.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the daemon at base (e.g.
// "http://hypervisor-7:8080"). The base URL is validated eagerly: an
// empty string, a missing http/https scheme or a missing host are
// rejected here, where the operator typo is still attached to its
// flag, instead of surfacing later as a confusing per-request
// transport error ("unsupported protocol scheme \"\"") in the middle
// of an apply round. Trailing slashes on base are stripped, so path
// joins never emit "//cgroups/...". httpClient may be nil to use a
// default client with DefaultTimeout.
func NewClient(base string, httpClient *http.Client) (*Client, error) {
	if strings.TrimSpace(base) == "" {
		return nil, errors.New("actuator: empty daemon base URL")
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("actuator: daemon base URL %q: %w", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("actuator: daemon base URL %q: scheme must be http or https, got %q", base, u.Scheme)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("actuator: daemon base URL %q: missing host", base)
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: DefaultTimeout}
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}, nil
}

// instrumented wraps one daemon call with latency/outcome metrics and
// a trace span (a no-op unless the context carries an obs.Tracer).
func (c *Client) instrumented(ctx context.Context, op, id string, fn func(ctx context.Context) error) error {
	ctx, span := obs.StartSpan(ctx, "actuator."+op)
	if id != "" {
		span.SetAttr("cgroup", id)
	}
	start := time.Now()
	err := fn(ctx)
	clientSeconds.With(op).Observe(time.Since(start).Seconds())
	outcome := "ok"
	if err != nil {
		outcome = "error"
		span.SetAttr("error", err.Error())
	}
	clientCalls.With(op, outcome).Inc()
	span.End()
	return err
}

// SetLimits creates or updates a VM cgroup's limits on the daemon.
// Failures are *Error values classified transient/terminal.
func (c *Client) SetLimits(ctx context.Context, id string, l Limits) error {
	return c.instrumented(ctx, "set_limits", id, func(ctx context.Context) error {
		// Validate before marshaling: the daemon would answer 400, and a
		// NaN limit would otherwise die in json.Marshal with an
		// unclassified (hence retried) error.
		if err := l.Validate(); err != nil {
			return &Error{Op: "set_limits", ID: id, Status: http.StatusBadRequest, Err: err}
		}
		body, err := json.Marshal(l)
		if err != nil {
			return fmt.Errorf("actuator: marshal limits: %w", err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.groupURL(id), bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("actuator: build request: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(req)
		if err != nil {
			return &Error{Op: "set_limits", ID: id, Err: err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return &Error{Op: "set_limits", ID: id, Status: resp.StatusCode, Err: errors.New(readBody(resp))}
		}
		return nil
	})
}

// GetLimits reads a VM cgroup's limits from the daemon.
func (c *Client) GetLimits(ctx context.Context, id string) (Limits, error) {
	var l Limits
	err := c.instrumented(ctx, "get_limits", id, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.groupURL(id), nil)
		if err != nil {
			return fmt.Errorf("actuator: build request: %w", err)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return &Error{Op: "get_limits", ID: id, Err: err}
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			return &Error{Op: "get_limits", ID: id, Status: resp.StatusCode, Err: fmt.Errorf("%q: %w", id, ErrNotFound)}
		default:
			return &Error{Op: "get_limits", ID: id, Status: resp.StatusCode, Err: errors.New(readBody(resp))}
		}
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			return fmt.Errorf("actuator: decode limits: %w", err)
		}
		return nil
	})
	if err != nil {
		return Limits{}, err
	}
	return l, nil
}

// DeleteGroup removes a VM cgroup on the daemon.
func (c *Client) DeleteGroup(ctx context.Context, id string) error {
	return c.instrumented(ctx, "delete_group", id, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.groupURL(id), nil)
		if err != nil {
			return fmt.Errorf("actuator: build request: %w", err)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return &Error{Op: "delete_group", ID: id, Err: err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return &Error{Op: "delete_group", ID: id, Status: resp.StatusCode, Err: errors.New(readBody(resp))}
		}
		return nil
	})
}

func (c *Client) groupURL(id string) string {
	return c.base + "/cgroups/" + url.PathEscape(id)
}

// readBody returns a trimmed prefix of the response body — the
// daemon's error text — for embedding in a typed Error.
func readBody(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return string(bytes.TrimSpace(b))
}
