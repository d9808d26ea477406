package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestAPIErrorSurfacesAttemptsAndRetryAfter: when the retry budget is
// exhausted on a retryable status, the returned APIError reports how
// many tries the call burned and the server's last Retry-After hint.
func TestAPIErrorSurfacesAttemptsAndRetryAfter(t *testing.T) {
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"server: job queue full"}`))
	}))
	c.MaxAttempts = 3
	_, err := c.Submit(context.Background(), server.JobRequest{Experiment: "fig8"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", ae.Attempts)
	}
	if ae.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", ae.RetryAfter)
	}
	msg := ae.Error()
	if !strings.Contains(msg, "3 attempts") || !strings.Contains(msg, "retry after 7s") {
		t.Fatalf("Error() = %q should mention attempts and the Retry-After hint", msg)
	}
}

// TestAPIErrorImmediateFailureIsOneAttempt: non-retryable responses
// report a single attempt and keep the terse error text.
func TestAPIErrorImmediateFailureIsOneAttempt(t *testing.T) {
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"bad"}`))
	}))
	_, err := c.Submit(context.Background(), server.JobRequest{Experiment: "fig8"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Attempts != 1 || ae.RetryAfter != 0 {
		t.Fatalf("Attempts=%d RetryAfter=%v, want 1 and 0", ae.Attempts, ae.RetryAfter)
	}
	if got := ae.Error(); got != "polyserve: bad (HTTP 400)" {
		t.Fatalf("Error() = %q", got)
	}
}

// TestRetriesMidBodyHang: a server that sends headers and then wedges
// mid-body is indistinguishable from a dead worker; the per-attempt
// deadline must cut the body read loose (context.DeadlineExceeded
// surfacing from resp.Body) and the call must retry and succeed, all
// within the caller's larger context.
func TestRetriesMidBodyHang(t *testing.T) {
	var calls atomic.Int32
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Headers and half a JSON body, then hang until the client
			// abandons the attempt.
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(`{"id":"job-`))
			w.(http.Flusher).Flush()
			<-r.Context().Done()
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{}`))
	}))
	c.AttemptTimeout = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Job(ctx, "job-000001"); err != nil {
		t.Fatalf("Job should survive a mid-body hang via retry, got %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2 (hang, then retry)", got)
	}
}

// TestLogfReceivesRetryDetail: the debug hook sees one line per retry
// with the attempt counter, the backoff, and the Retry-After hint.
func TestLogfReceivesRetryDetail(t *testing.T) {
	var calls atomic.Int32
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"server: job queue full"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{}`))
	}))
	var lines []string
	c.Logf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	if _, err := c.Job(context.Background(), "job-000001"); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("Logf got %d lines, want 1: %v", len(lines), lines)
	}
	for _, want := range []string{"attempt 2/", "queue full", "Retry-After 2s"} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("log line %q missing %q", lines[0], want)
		}
	}
}
