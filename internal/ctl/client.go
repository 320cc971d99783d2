// Package ctl is the typed Go client for the quorumd /v1 control API —
// the programmatic face of the cluster control plane that cmd/quorumctl
// fronts. One Client speaks to one daemon with a per-request timeout and
// bounded retries on idempotent calls; Fleet fans a call out to every
// daemon of a cluster concurrently and collects per-daemon results.
package ctl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"quorumconf/internal/daemon"
)

// DefaultTimeout bounds one HTTP round trip to one daemon.
const DefaultTimeout = 5 * time.Second

// DefaultRetries is how many times an idempotent request is retried after
// a transport error or a 5xx answer.
const DefaultRetries = 2

// APIError is a non-2xx answer from a daemon, carrying the typed error
// body the /v1 API guarantees.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the daemon's error string.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("daemon answered HTTP %d: %s", e.Status, e.Message)
}

// Client talks to one daemon's /v1 API.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithTimeout sets the per-request timeout (default DefaultTimeout).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.hc.Timeout = d }
}

// WithRetries sets how many times idempotent requests are retried
// (default DefaultRetries; 0 disables).
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithHTTPClient substitutes the underlying http.Client.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the daemon at addr — a host:port or an
// http:// URL.
func New(addr string, opts ...Option) *Client {
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:    base,
		hc:      &http.Client{Timeout: DefaultTimeout},
		retries: DefaultRetries,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Addr returns the daemon base URL this client targets.
func (c *Client) Addr() string { return c.base }

// Status fetches GET /v1/status.
func (c *Client) Status(ctx context.Context) (daemon.StatusResponse, error) {
	var v daemon.StatusResponse
	err := c.call(ctx, http.MethodGet, "/v1/status", nil, &v, true)
	return v, err
}

// Members fetches GET /v1/members.
func (c *Client) Members(ctx context.Context) (daemon.MembersResponse, error) {
	var v daemon.MembersResponse
	err := c.call(ctx, http.MethodGet, "/v1/members", nil, &v, true)
	return v, err
}

// AddMember registers a peer transport address via POST /v1/members.
// Registration is idempotent on the daemon side, so it retries.
func (c *Client) AddMember(ctx context.Context, node int, addr string) (daemon.AddMemberResponse, error) {
	var v daemon.AddMemberResponse
	req := daemon.AddMemberRequest{Node: node, Addr: addr}
	err := c.call(ctx, http.MethodPost, "/v1/members", req, &v, true)
	return v, err
}

// Drain asks the daemon to stop accepting allocations via POST /v1/drain.
// Draining is idempotent, so it retries.
func (c *Client) Drain(ctx context.Context) (daemon.DrainResponse, error) {
	var v daemon.DrainResponse
	err := c.call(ctx, http.MethodPost, "/v1/drain", nil, &v, true)
	return v, err
}

// Depart asks the daemon to leave the cluster gracefully via
// POST /v1/depart (the RETURN_ADDR exchange). Departure is idempotent —
// concurrent and repeated calls share one exchange — so it retries.
func (c *Client) Depart(ctx context.Context) (daemon.DepartResponse, error) {
	var v daemon.DepartResponse
	err := c.call(ctx, http.MethodPost, "/v1/depart", nil, &v, true)
	return v, err
}

// Health fetches GET /v1/health.
func (c *Client) Health(ctx context.Context) (daemon.HealthResponse, error) {
	var v daemon.HealthResponse
	err := c.call(ctx, http.MethodGet, "/v1/health", nil, &v, true)
	return v, err
}

// Allocate requests one address via POST /v1/allocate. Allocation is NOT
// idempotent (a retried request would allocate twice), so transport
// failures surface to the caller instead of being retried.
func (c *Client) Allocate(ctx context.Context, node int) (daemon.AllocateResponse, error) {
	var v daemon.AllocateResponse
	var body any
	if node != 0 {
		body = daemon.AllocateRequest{Node: node}
	}
	err := c.call(ctx, http.MethodPost, "/v1/allocate", body, &v, false)
	return v, err
}

// Trace fetches GET /v1/trace, optionally filtered to one event kind.
func (c *Client) Trace(ctx context.Context, kind string) (daemon.TraceResponse, error) {
	path := "/v1/trace"
	if kind != "" {
		path += "?kind=" + url.QueryEscape(kind)
	}
	var v daemon.TraceResponse
	err := c.call(ctx, http.MethodGet, path, nil, &v, true)
	return v, err
}

// Metrics fetches GET /v1/metrics — the Prometheus text exposition, raw.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, _, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// call performs one API request with JSON encoding both ways, retrying
// transport errors and 5xx answers when idempotent.
func (c *Client) call(ctx context.Context, method, path string, reqBody, dst any, idempotent bool) error {
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			backoff := time.NewTimer(c.backoff << (attempt - 1))
			select {
			case <-backoff.C:
			case <-ctx.Done():
				backoff.Stop()
				return lastErr
			}
		}
		body, status, err := c.do(ctx, method, path, reqBody)
		switch {
		case err != nil:
			lastErr = err
			if ctx.Err() != nil {
				return lastErr // the caller gave up; stop retrying
			}
			continue
		case status >= 500:
			lastErr = apiError(status, body)
			continue
		case status >= 400:
			return apiError(status, body) // a client error will not improve
		}
		if dst == nil {
			return nil
		}
		if err := json.Unmarshal(body, dst); err != nil {
			return fmt.Errorf("decoding %s %s response: %w", method, path, err)
		}
		return nil
	}
	return lastErr
}

// do performs one HTTP round trip and returns the raw body and status.
func (c *Client) do(ctx context.Context, method, path string, reqBody any) ([]byte, int, error) {
	var rd io.Reader
	if reqBody != nil {
		buf, err := json.Marshal(reqBody)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return nil, 0, err
	}
	return body, resp.StatusCode, nil
}

// apiError builds the typed error from a non-2xx body, falling back to
// the raw text when the body is not the ErrorResponse shape.
func apiError(status int, body []byte) *APIError {
	var e daemon.ErrorResponse
	if err := json.Unmarshal(body, &e); err == nil && e.Error != "" {
		return &APIError{Status: status, Message: e.Error}
	}
	return &APIError{Status: status, Message: strings.TrimSpace(string(body))}
}
