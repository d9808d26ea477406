package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderPreservingMerge: results are aligned with the task slice no
// matter how shards interleave, across a range of worker counts.
func TestOrderPreservingMerge(t *testing.T) {
	const n = 64
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{
			ID: fmt.Sprintf("task-%02d", i),
			Run: func(tc *TaskContext) (int, error) {
				// Vary the work so completion order differs from
				// submission order.
				time.Sleep(time.Duration(i*37%100) * time.Microsecond)
				return i * i, nil
			},
		}
	}
	for _, workers := range []int{1, 2, 4, 16, 100} {
		res, err := Run(Options{Workers: workers}, tasks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), n)
		}
		for i, r := range res {
			if r.Index != i || r.Value != i*i || r.ID != tasks[i].ID || r.Err != nil {
				t.Fatalf("workers=%d: result %d = %+v, want index %d value %d id %s", workers, i, r, i, i*i, tasks[i].ID)
			}
			if r.Shard < 0 || r.Shard >= workers {
				t.Fatalf("workers=%d: result %d ran on shard %d", workers, i, r.Shard)
			}
		}
	}
}

// TestWorkerBound: the pool never runs more than Workers tasks at once.
func TestWorkerBound(t *testing.T) {
	const workers, n = 3, 24
	var inflight, peak atomic.Int64
	tasks := make([]Task[struct{}], n)
	for i := range tasks {
		tasks[i] = Task[struct{}]{
			ID: fmt.Sprintf("t%d", i),
			Run: func(tc *TaskContext) (struct{}, error) {
				cur := inflight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inflight.Add(-1)
				return struct{}{}, nil
			},
		}
	}
	if _, err := Run(Options{Workers: workers}, tasks); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks, worker bound is %d", got, workers)
	}
}

// TestErrorSelectionIsDeterministic: the run error is the lowest-indexed
// failure regardless of completion order.
func TestErrorSelectionIsDeterministic(t *testing.T) {
	errLate := errors.New("late failure (low index)")
	errFast := errors.New("fast failure (high index)")
	tasks := []Task[int]{
		{ID: "ok", Run: func(tc *TaskContext) (int, error) { return 1, nil }},
		{ID: "slow-fail", Run: func(tc *TaskContext) (int, error) {
			time.Sleep(20 * time.Millisecond)
			return 0, errLate
		}},
		{ID: "fast-fail", Run: func(tc *TaskContext) (int, error) { return 0, errFast }},
	}
	for i := 0; i < 3; i++ {
		res, err := Run(Options{Workers: 3}, tasks)
		if !errors.Is(err, errLate) {
			t.Fatalf("run error = %v, want the lowest-indexed failure %v", err, errLate)
		}
		if res[0].Err != nil || !errors.Is(res[1].Err, errLate) || !errors.Is(res[2].Err, errFast) {
			t.Fatalf("per-task errors misplaced: %v / %v / %v", res[0].Err, res[1].Err, res[2].Err)
		}
	}
}

// TestPanicContainment: a panicking task becomes a *PanicError naming the
// task, and the rest of the schedule still completes.
func TestPanicContainment(t *testing.T) {
	tasks := []Task[string]{
		{ID: "fine", Run: func(tc *TaskContext) (string, error) { return "ok", nil }},
		{ID: "bomb", Run: func(tc *TaskContext) (string, error) { panic("boom") }},
		{ID: "also-fine", Run: func(tc *TaskContext) (string, error) { return "ok", nil }},
	}
	res, err := Run(Options{Workers: 2, ContainPanics: true}, tasks)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run error = %v, want *PanicError", err)
	}
	if pe.Task != "bomb" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = %+v, want task bomb value boom with stack", pe)
	}
	if !strings.Contains(pe.Error(), "bomb") || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("panic error text %q does not name task and value", pe.Error())
	}
	if res[0].Value != "ok" || res[2].Value != "ok" {
		t.Fatal("healthy tasks did not complete around the panic")
	}
}

// TestCancellation: tasks not yet started fail with the context error;
// in-flight tasks observe the same context.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	tasks := make([]Task[int], 32)
	for i := range tasks {
		tasks[i] = Task[int]{
			ID: fmt.Sprintf("t%d", i),
			Run: func(tc *TaskContext) (int, error) {
				once.Do(func() { close(started) })
				<-tc.Context.Done()
				return 0, tc.Context.Err()
			},
		}
	}
	go func() {
		<-started
		cancel()
	}()
	res, err := Run(Options{Workers: 2, Context: ctx}, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("task %d error = %v, want context.Canceled", i, r.Err)
		}
	}
}

// obsRecorder records observer events with a lock (observer contract:
// called concurrently).
type obsRecorder struct {
	mu       sync.Mutex
	started  []string
	done     []string
	inflight int
	peak     int
	errs     int
}

func (o *obsRecorder) TaskStarted(shard int, id string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started = append(o.started, id)
	o.inflight++
	if o.inflight > o.peak {
		o.peak = o.inflight
	}
}

func (o *obsRecorder) TaskDone(shard int, id string, d time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.done = append(o.done, id)
	o.inflight--
	if err != nil {
		o.errs++
	}
	if d < 0 {
		panic("negative duration")
	}
}

// TestObserverAndStreaming: every task produces exactly one started and
// one done event, the in-flight count peaks within the worker bound, and
// the done events stream every task exactly once.
func TestObserverAndStreaming(t *testing.T) {
	const n = 20
	rec := &obsRecorder{}
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		fail := i == 7
		tasks[i] = Task[int]{
			ID: fmt.Sprintf("t%02d", i),
			Run: func(tc *TaskContext) (int, error) {
				if fail {
					return 0, errors.New("deliberate")
				}
				return i, nil
			},
		}
	}
	_, err := Run(Options{Workers: 4, Observer: rec}, tasks)
	if err == nil {
		t.Fatal("expected the deliberate failure to surface")
	}
	if len(rec.started) != n || len(rec.done) != n {
		t.Fatalf("observer saw %d started / %d done, want %d each", len(rec.started), len(rec.done), n)
	}
	if rec.errs != 1 {
		t.Fatalf("observer saw %d errors, want 1", rec.errs)
	}
	if rec.peak > 4 || rec.inflight != 0 {
		t.Fatalf("observer inflight peak %d (bound 4), final %d (want 0)", rec.peak, rec.inflight)
	}
	streamed := map[string]bool{}
	for _, id := range rec.done {
		if streamed[id] {
			t.Fatalf("task %s streamed twice", id)
		}
		streamed[id] = true
	}
	for _, task := range tasks {
		if !streamed[task.ID] {
			t.Fatalf("task %s never streamed", task.ID)
		}
	}
}

// TestEmptyAndDefaults: zero tasks are a no-op; Workers 0 resolves to
// GOMAXPROCS; a nil context defaults to background.
func TestEmptyAndDefaults(t *testing.T) {
	res, err := Run[int](Options{}, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v, %d results", err, len(res))
	}
	if (Options{}).workers() < 1 {
		t.Fatal("default worker count < 1")
	}
	if (Options{Workers: 7}).workers() != 7 {
		t.Fatal("explicit worker count not honored")
	}
	if (Options{}).context() == nil {
		t.Fatal("default context is nil")
	}
}

// TestMap: the slice fan-out helper preserves order and identity.
func TestMap(t *testing.T) {
	items := []string{"compress", "gcc", "go"}
	res, err := Map(Options{Workers: 2}, items,
		func(s string, i int) string { return fmt.Sprintf("gen/%s/r%d", s, i) },
		func(tc *TaskContext, s string) (string, error) { return strings.ToUpper(s), nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Value != strings.ToUpper(items[i]) {
			t.Fatalf("item %d: %q", i, r.Value)
		}
		if want := fmt.Sprintf("gen/%s/r%d", items[i], i); r.ID != want {
			t.Fatalf("item %d id %q, want %q", i, r.ID, want)
		}
	}
	if _, err := Map(Options{}, []int{1}, func(int, int) string { return "x" },
		func(tc *TaskContext, v int) (int, error) { return 0, errors.New("mapped failure") }); err == nil {
		t.Fatal("Map swallowed the task error")
	}
}
