package client

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

func testLogger(t *testing.T) *log.Logger {
	return log.New(testWriter{t}, "", 0)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// testClient returns a client against handler with sleeping replaced by
// recording, and zero jitter so delays are exact.
func testClient(t *testing.T, handler http.Handler) (*Client, *[]time.Duration) {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	var slept []time.Duration
	c := New(ts.URL)
	c.BaseDelay = 100 * time.Millisecond
	c.MaxDelay = time.Second
	c.Jitter = func() float64 { return 1 } // delay = base<<n exactly
	c.Sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	return c, &slept
}

// TestRetriesBackpressureHonoringRetryAfter rejects two submissions with
// 429 + Retry-After: 3 before accepting, and checks the client slept the
// server-mandated 3s (not the smaller computed backoff) both times.
func TestRetriesBackpressureHonoringRetryAfter(t *testing.T) {
	var calls atomic.Int32
	c, slept := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"server: job queue full"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(server.Job{ID: "job-000001", State: server.JobQueued})
	}))

	j, err := c.Submit(context.Background(), server.JobRequest{Experiment: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-000001" {
		t.Fatalf("job ID %q", j.ID)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if len(*slept) != 2 || (*slept)[0] != 3*time.Second || (*slept)[1] != 3*time.Second {
		t.Fatalf("sleeps %v, want [3s 3s] from Retry-After", *slept)
	}
}

// TestExponentialBackoffOn5xx checks the computed delays double per
// attempt and cap at MaxDelay when the server gives no hint.
func TestExponentialBackoffOn5xx(t *testing.T) {
	var calls atomic.Int32
	c, slept := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 4 {
			http.Error(w, "boom", http.StatusBadGateway)
			return
		}
		_ = json.NewEncoder(w).Encode(server.Job{ID: "job-000001", State: server.JobDone})
	}))
	c.MaxAttempts = 5
	if _, err := c.Job(context.Background(), "job-000001"); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond}
	if len(*slept) != len(want) {
		t.Fatalf("sleeps %v, want %v", *slept, want)
	}
	for i := range want {
		if (*slept)[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (all: %v)", i, (*slept)[i], want[i], *slept)
		}
	}
}

// TestRetryBudgetExhausted checks a persistent 503 surfaces as the typed
// API error after MaxAttempts tries.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"server: draining, not accepting jobs"}`))
	}))
	c.MaxAttempts = 3
	_, err := c.Submit(context.Background(), server.JobRequest{Experiment: "fig8"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503", err)
	}
	if !strings.Contains(ae.Message, "draining") {
		t.Fatalf("message %q lost the server error", ae.Message)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want exactly MaxAttempts=3", got)
	}
}

// TestClientErrorsAreNotRetried checks 400/403/404 return immediately.
func TestClientErrorsAreNotRetried(t *testing.T) {
	cases := []struct {
		status int
		body   string
	}{
		{http.StatusBadRequest, `{"error":"unknown experiment \"fig99\""}`},
		{http.StatusForbidden, `{"error":"server: request quarantined after repeated worker crashes"}`},
		{http.StatusNotFound, `{"error":"unknown job \"job-9\""}`},
	}
	for _, tc := range cases {
		var calls atomic.Int32
		c, slept := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(tc.status)
			_, _ = w.Write([]byte(tc.body))
		}))
		_, err := c.Submit(context.Background(), server.JobRequest{Experiment: "fig8"})
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != tc.status {
			t.Fatalf("status %d: err = %v", tc.status, err)
		}
		if calls.Load() != 1 || len(*slept) != 0 {
			t.Fatalf("status %d: %d calls, %d sleeps — client errors must not retry", tc.status, calls.Load(), len(*slept))
		}
	}
}

// TestRunAgainstRealServer drives the calls polyload makes against an
// actual polyserve instance: submit a job, then poll it until it is done.
func TestRunAgainstRealServer(t *testing.T) {
	srv, err := server.New(server.Config{CacheCells: 16, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Drain() })

	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err := c.Submit(ctx, server.JobRequest{
		Configs:    []server.ConfigEntry{{Name: "mono", Model: "monopath"}},
		Benchmarks: []string{"compress"},
		Insts:      10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for j.State == server.JobQueued || j.State == server.JobRunning {
		time.Sleep(10 * time.Millisecond)
		if j, err = c.Job(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
	}
	if j.State != server.JobDone {
		t.Fatalf("job ended %s (%s), want done", j.State, j.Error)
	}
	if done, _ := srv.Job(j.ID); !strings.Contains(done.Result.Text, "compress") || done.Result.Cells != 1 {
		t.Fatalf("result: cells=%d text:\n%s", done.Result.Cells, done.Result.Text)
	}
}

// TestSubmitLongTitleAccepted submits a job whose title is 200,000 "<"
// through the client. Sent raw, the body is about 200 kB, well inside the
// server's 1 MiB cap; json.Marshal would escape each "<" as six bytes and
// push it to 1.2 MB. The client must encode it as the server reads it.
func TestSubmitLongTitleAccepted(t *testing.T) {
	srv, err := server.New(server.Config{CacheCells: 16, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Drain() })

	title := strings.Repeat("<", 200_000)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err := New(ts.URL).Submit(ctx, server.JobRequest{
		Title:      title,
		Configs:    []server.ConfigEntry{{Name: "mono", Model: "monopath"}},
		Benchmarks: []string{"compress"},
		Insts:      1000,
	})
	if err != nil {
		t.Fatalf("long-title submit refused: %v", err)
	}
	if got, _ := srv.Job(j.ID); got.Request.Title != title {
		t.Fatalf("server holds a %d-byte title, want the %d sent", len(got.Request.Title), len(title))
	}
}
