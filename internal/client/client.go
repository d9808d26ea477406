// Package client is the Go client for polyserve's /v1 API with built-in
// retry handling: transient failures (connection errors, 429 backpressure,
// 5xx) are retried with capped exponential backoff and full jitter, and a
// server-provided Retry-After hint overrides the computed delay. Client
// errors (400, 403 quarantine, 404) are never retried — they are returned
// as *APIError so callers can branch on the status code.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// Client talks to one polyserve instance. The zero value is not usable;
// create with New.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080" (no /v1).
	BaseURL string
	// HTTP is the underlying HTTP client (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds tries per call, first attempt included (default 5).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms); Delay for
	// attempt n is min(BaseDelay<<n, MaxDelay) scaled by jitter in [½,1).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 5s).
	MaxDelay time.Duration
	// AttemptTimeout, when > 0, deadlines every individual attempt
	// (connection + headers + body read). An attempt that exceeds it —
	// including a server that sends headers and then hangs mid-body — is
	// treated like any other transport failure and retried, while the
	// caller's context keeps governing the call as a whole. 0 means
	// attempts are bounded only by the caller's context.
	AttemptTimeout time.Duration

	// Sleep and Jitter are injection points for tests: Sleep pauses between
	// attempts (default time.Sleep honoring ctx) and Jitter returns a
	// uniform value in [0,1) (default math/rand).
	Sleep  func(ctx context.Context, d time.Duration) error
	Jitter func() float64

	// Logf, when set, receives a debug line per retry: the attempt number,
	// the failure being retried, the computed backoff, and whether a
	// server Retry-After hint stretched it (nil = silent).
	Logf func(format string, args ...any)
}

// New returns a client for the polyserve instance at baseURL with the
// default retry policy.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// APIError is a non-retryable response from the server (4xx, or a 5xx that
// outlived the retry budget).
type APIError struct {
	Status  int    // HTTP status code
	Message string // the server's error text
	// Attempts is how many tries the call consumed before this error was
	// returned (1 for an immediately non-retryable response).
	Attempts int
	// RetryAfter is the server's last Retry-After hint, if it sent one —
	// how long it asked us to wait before coming back. Surfaced so callers
	// that give up (budget exhausted) can still honor the hint later.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("polyserve: %s (HTTP %d", e.Message, e.Status)
	if e.Attempts > 1 {
		msg += fmt.Sprintf(", %d attempts", e.Attempts)
	}
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf(", server asked to retry after %s", e.RetryAfter)
	}
	return msg + ")"
}

// errText extracts the server's JSON error message, falling back to the
// HTTP status line for non-JSON bodies.
func errText(data []byte, fallback string) string {
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return fallback
}

// Submit posts a job request and returns the accepted job.
func (c *Client) Submit(ctx context.Context, req server.JobRequest) (server.Job, error) {
	var j server.Job
	body, err := server.EncodeRequest(req)
	if err != nil {
		return j, err
	}
	err = c.do(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &j)
	return j, err
}

// Job fetches the current view of a job.
func (c *Client) Job(ctx context.Context, id string) (server.Job, error) {
	var j server.Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &j)
	return j, err
}

// do issues one API call with the retry policy and decodes the wanted
// response into out.
func (c *Client) do(ctx context.Context, method, path string, body []byte, want int, out any) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	attempts := c.MaxAttempts
	if attempts < 1 {
		attempts = 5
	}

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt, lastErr)
			if c.Logf != nil {
				hint := ""
				if ra, ok := lastErr.(*retryAfterError); ok && ra.after > 0 {
					hint = fmt.Sprintf(" (server Retry-After %s)", ra.after)
				}
				c.Logf("polyserve client: %s %s attempt %d/%d after %v; retrying in %s%s",
					method, path, attempt+1, attempts, lastErr, d, hint)
			}
			if err := c.sleep(ctx, d); err != nil {
				return err
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		// Per-attempt deadline: a worker that accepts the connection and
		// then wedges (before or during the response body) costs one
		// attempt, not the whole call budget.
		attemptCtx, attemptCancel := ctx, context.CancelFunc(func() {})
		if c.AttemptTimeout > 0 {
			attemptCtx, attemptCancel = context.WithTimeout(ctx, c.AttemptTimeout)
		}
		req, err := http.NewRequestWithContext(attemptCtx, method, c.BaseURL+path, rd)
		if err != nil {
			attemptCancel()
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := httpc.Do(req)
		if err != nil {
			attemptCancel()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err // connection-level failure (incl. attempt timeout): retry
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		attemptCancel()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// A failed body read — connection reset, or the attempt
			// deadline expiring mid-body (context.DeadlineExceeded) — is a
			// transport error like any other: the response is unusable and
			// the request is safe to retry.
			lastErr = err
			continue
		}
		if resp.StatusCode == want {
			if out == nil || len(data) == 0 {
				return nil
			}
			return json.Unmarshal(data, out)
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: errText(data, resp.Status), Attempts: attempt + 1}
		if !retryable(resp.StatusCode) {
			return apiErr
		}
		lastErr = &retryAfterError{err: apiErr, after: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
	if ra, ok := lastErr.(*retryAfterError); ok {
		// Budget exhausted on a retryable status: report how many tries the
		// call burned and the server's last Retry-After hint.
		ra.err.Attempts = attempts
		ra.err.RetryAfter = ra.after
		return ra.err
	}
	return fmt.Errorf("polyserve: %s %s failed after %d attempts: %w", method, path, attempts, lastErr)
}

// retryable reports whether a status is worth another attempt: 429
// (backpressure — the server asked us to come back) and 5xx (transient
// server trouble, including 503 while draining).
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// retryAfterError carries the server's Retry-After hint to the backoff.
type retryAfterError struct {
	err   *APIError
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// backoff computes the sleep before the attempt-th try (attempt >= 1):
// capped exponential growth with full jitter, overridden by a larger
// server-provided Retry-After hint.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	base := c.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := c.MaxDelay
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	d := base << (attempt - 1)
	if d > maxd || d <= 0 { // <= 0 catches shift overflow
		d = maxd
	}
	jitter := c.Jitter
	if jitter == nil {
		jitter = rand.Float64
	}
	// Full jitter in [½d, d): desynchronizes a fleet of retrying clients
	// without ever collapsing the delay to ~0.
	d = d/2 + time.Duration(jitter()*float64(d/2))
	if ra, ok := lastErr.(*retryAfterError); ok && ra.after > d {
		d = ra.after
	}
	return d
}

// parseRetryAfter reads a Retry-After header (seconds form only).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleep pauses for d, honoring ctx cancellation and the test hook.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
