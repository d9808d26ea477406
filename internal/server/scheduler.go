package server

import (
	"errors"
	"sync"
)

// ErrQueueFull is returned by submit when the FIFO backlog is at
// capacity; the HTTP layer translates it into 429 + Retry-After
// (backpressure).
var ErrQueueFull = errors.New("server: job queue full")

// ErrDraining is returned by submit once a graceful drain has begun.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// scheduler runs jobs from one bounded FIFO queue on a fixed pool of
// worker goroutines. It knows nothing about HTTP or simulation: it moves
// *Job values from the queue to the run callback, and supports graceful
// drain (in-flight jobs finish; still-queued jobs are handed back for
// journaling).
type scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Job
	capacity int
	running  int
	draining bool
	wg       sync.WaitGroup
	run      func(*Job)
}

func newScheduler(workers, capacity int, run func(*Job)) *scheduler {
	s := &scheduler{capacity: max(capacity, 1), run: run}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < max(workers, 1); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue[0] = nil // the backing array must not keep a forgotten job alive
		s.queue = s.queue[1:]
		s.running++
		s.mu.Unlock()

		s.run(j)

		s.mu.Lock()
		s.running--
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// submit appends a job to the FIFO queue, failing fast when the backlog
// is at capacity or the scheduler is draining.
func (s *scheduler) submit(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if len(s.queue) >= s.capacity {
		return ErrQueueFull
	}
	s.queue = append(s.queue, j)
	s.cond.Signal()
	return nil
}

// remove pulls a specific queued job out of the queue (for cancellation).
// It returns false if the job is not queued (already running, done, or
// never submitted).
func (s *scheduler) remove(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, queued := range s.queue {
		if queued == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return true
		}
	}
	return false
}

// depth reports the queued and the running jobs.
func (s *scheduler) depth() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.running
}

// drain stops accepting work, lets in-flight jobs finish, shuts the
// workers down, and returns the jobs still queued, in arrival order, so
// the caller can journal them. Safe to call once; later submits fail
// with ErrDraining.
func (s *scheduler) drain() []*Job {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	for s.running > 0 {
		s.cond.Wait()
	}
	left := s.queue
	s.queue = nil
	s.mu.Unlock()
	s.wg.Wait()
	return left
}
