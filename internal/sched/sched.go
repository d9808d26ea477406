// Package sched is the deterministic parallel execution engine behind
// the experiment harness, the polysim comparison mode, and every
// polyserve job.
//
// A run shards a fixed list of tasks — experiment cells, benchmark
// characterizations, anything shaped func(*TaskContext) (T, error) —
// across a bounded pool of workers and merges the outcomes positionally,
// so the result slice is ordered by submission regardless of which shard
// finished first. Determinism is a design contract, not an accident:
//
//   - Results are merged order-preservingly: Run's result slice is
//     aligned index-for-index with the task slice.
//   - Error selection is by task order, not completion order: the run's
//     error is the failed task with the lowest index, every time.
//   - A task sees only its context and its shard, and nothing
//     result-bearing may depend on the shard.
//
// Consequently a sweep run with Workers: 1 is bit-identical to the same
// sweep with Workers: N — the property the harness's rendered tables rely
// on and internal/harness's golden tests enforce.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one schedulable unit of work. ID must be stable across runs
// (e.g. "gcc/see/r0"): it names the task in errors and observer events.
type Task[T any] struct {
	ID  string
	Run func(tc *TaskContext) (T, error)
}

// TaskContext carries per-task execution state into Task.Run.
type TaskContext struct {
	// Context is the run's context; tasks should thread it into
	// cancellable work (the harness passes it down to the cycle loop).
	Context context.Context
	// Shard is the worker executing this task, in [0, Workers). The same
	// task may land on different shards across runs; nothing
	// result-bearing may depend on it (it exists for observability).
	Shard int
}

// Result is one task's outcome, reported positionally by Run.
type Result[T any] struct {
	ID      string
	Index   int
	Shard   int
	Value   T
	Err     error
	Elapsed time.Duration
}

// Observer receives task lifecycle events from worker goroutines;
// implementations must be safe for concurrent use. polyserve wires this
// to its /metrics shard gauges and histograms.
type Observer interface {
	// TaskStarted fires when a shard picks the task up.
	TaskStarted(shard int, id string)
	// TaskDone fires when the task returns (err is the task's error,
	// including a contained panic or a skip due to cancellation).
	TaskDone(shard int, id string, elapsed time.Duration, err error)
}

// Options configure a Run.
type Options struct {
	// Workers bounds the pool (0 = GOMAXPROCS). One worker executes the
	// schedule strictly sequentially.
	Workers int
	// Context cancels the run: in-flight tasks see it through their
	// TaskContext, tasks not yet started fail with the context's error.
	Context context.Context
	// ContainPanics converts a panicking task into a *PanicError result
	// instead of crashing the process.
	ContainPanics bool
	// Observer, when non-nil, receives task lifecycle events.
	Observer Observer
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// PanicError is a contained task panic (Options.ContainPanics).
type PanicError struct {
	Task  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task %s panicked: %v", e.Task, e.Value)
}

// Run executes tasks on a bounded worker pool and returns the outcomes
// aligned index-for-index with tasks (the order-preserving merge). The
// returned error is the lowest-indexed task failure (nil if every task
// succeeded); per-task errors are also available on the results. Run
// returns only after every task has finished or been skipped.
func Run[T any](opts Options, tasks []Task[T]) ([]Result[T], error) {
	results := make([]Result[T], len(tasks))
	if len(tasks) == 0 {
		return results, nil
	}
	ctx := opts.context()
	workers := opts.workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for shard := 0; shard < workers; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				results[i] = runOne(opts, ctx, shard, i, tasks[i])
			}
		}(shard)
	}
	wg.Wait()
	for i := range results {
		if results[i].Err != nil {
			return results, results[i].Err
		}
	}
	return results, nil
}

// runOne executes a single task on the given shard, with lifecycle
// observation and (optionally) panic containment.
func runOne[T any](opts Options, ctx context.Context, shard, index int, t Task[T]) (res Result[T]) {
	res = Result[T]{ID: t.ID, Index: index, Shard: shard}
	if opts.Observer != nil {
		opts.Observer.TaskStarted(shard, t.ID)
	}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if opts.Observer != nil {
			opts.Observer.TaskDone(shard, t.ID, res.Elapsed, res.Err)
		}
	}()
	// A cancelled run skips tasks that have not started yet; tasks
	// already in flight observe the same context through TaskContext.
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	tc := &TaskContext{Context: ctx, Shard: shard}
	if opts.ContainPanics {
		defer func() {
			if r := recover(); r != nil {
				res.Err = &PanicError{Task: t.ID, Value: r, Stack: debug.Stack()}
			}
		}()
	}
	res.Value, res.Err = t.Run(tc)
	return res
}

// Map is the common fan-out: it builds one task per item with
// id(item, index) naming it and run(tc, item) executing it, then Runs the
// schedule. Results are positionally aligned with items.
func Map[In, Out any](opts Options, items []In, id func(In, int) string, run func(*TaskContext, In) (Out, error)) ([]Result[Out], error) {
	tasks := make([]Task[Out], len(items))
	for i, item := range items {
		item := item
		tasks[i] = Task[Out]{ID: id(item, i), Run: func(tc *TaskContext) (Out, error) { return run(tc, item) }}
	}
	return Run(opts, tasks)
}
