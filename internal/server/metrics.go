package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/debughttp"
	"repro/internal/obs/metrics"
)

// initMetrics builds the server's Prometheus registry: the service-level
// counters (internal/stats), queue and memoization gauges read at scrape
// time, and per-job latency histograms by outcome. Called once from New.
func (s *Server) initMetrics() {
	reg := metrics.NewRegistry()
	s.reg = reg
	s.svc.Register(reg)

	reg.GaugeFunc("polyserve_queue_depth", "", "Jobs waiting in the FIFO queue.", func() float64 {
		queued, _ := s.sched.depth()
		return float64(queued)
	})
	reg.GaugeFunc("polyserve_jobs_running", "", "Jobs currently executing on workers.", func() float64 {
		_, running := s.sched.depth()
		return float64(running)
	})
	reg.GaugeFunc("polyserve_queue_capacity", "", "FIFO queue capacity (backpressure beyond this).", func() float64 {
		return float64(s.cfg.QueueCapacity)
	})
	if s.memo != nil {
		reg.CounterFunc("polyserve_memo_hits_total", "", "Memoization cache hits.", func() float64 {
			hits, _ := s.memo.Stats()
			return float64(hits)
		})
		reg.CounterFunc("polyserve_memo_misses_total", "", "Memoization cache misses.", func() float64 {
			_, misses := s.memo.Stats()
			return float64(misses)
		})
		reg.GaugeFunc("polyserve_memo_entries", "", "Resident memoization cache entries.", func() float64 {
			return float64(s.memo.Len())
		})
		reg.GaugeFunc("polyserve_memo_hit_ratio", "", "Memoization hit ratio since startup.", func() float64 {
			hits, misses := s.memo.Stats()
			if hits+misses == 0 {
				return 0
			}
			return float64(hits) / float64(hits+misses)
		})
	}
	s.jobDur = map[JobState]*metrics.Histogram{
		JobDone:      reg.Histogram("polyserve_job_duration_seconds", `state="done"`, "Job wall time from start to finish, by outcome.", metrics.LatencyBuckets()),
		JobFailed:    reg.Histogram("polyserve_job_duration_seconds", `state="failed"`, "", metrics.LatencyBuckets()),
		JobCancelled: reg.Histogram("polyserve_job_duration_seconds", `state="cancelled"`, "", metrics.LatencyBuckets()),
	}
	s.cellDur = reg.Histogram("polyserve_cell_duration_seconds", "", "Per-cell simulation wall time (cache replays excluded).", metrics.LatencyBuckets())
	reg.GaugeFunc("polyserve_cells_inflight", "", "Job cells currently executing on scheduler shards.", func() float64 {
		return float64(s.cellsInflight.Load())
	})
	s.shardDur = make(map[int]*metrics.Histogram)
	s.workerDur = make(map[string]*metrics.Histogram)
	if s.registry != nil {
		reg.GaugeFunc("polyserve_workers_live", "", "Fleet workers with a live lease.", func() float64 {
			return float64(s.registry.liveCount())
		})
	}
	if s.store != nil {
		reg.GaugeFunc("polyserve_store_entries", "", "Results resident in the content-addressed store.", func() float64 {
			return float64(s.store.Len())
		})
	}
	version := strings.ReplaceAll(obs.Version(), `"`, "'")
	reg.GaugeFunc("polyserve_build_info", `version="`+version+`"`, "Build identity (constant 1).", func() float64 { return 1 })
}

// maxShardSeries caps the per-shard histogram label cardinality; shards
// beyond it share one overflow series.
const maxShardSeries = 32

// shardHist returns the duration histogram of one scheduler shard,
// registering the labeled series on first use. The registry is
// mutex-guarded, so lazy registration is safe against concurrent
// scrapes; s.shardMu only makes the check-then-register atomic.
func (s *Server) shardHist(shard int) *metrics.Histogram {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	if shard >= maxShardSeries || shard < 0 {
		if s.shardOverflow == nil {
			s.shardOverflow = s.reg.Histogram("polyserve_shard_cell_duration_seconds",
				`shard="overflow"`, "", metrics.ShortLatencyBuckets())
		}
		return s.shardOverflow
	}
	h := s.shardDur[shard]
	if h == nil {
		help := ""
		if len(s.shardDur) == 0 {
			help = "Per-cell wall time by the scheduler shard that ran it."
		}
		h = s.reg.Histogram("polyserve_shard_cell_duration_seconds",
			`shard="`+strconv.Itoa(shard)+`"`, help, metrics.ShortLatencyBuckets())
		s.shardDur[shard] = h
	}
	return h
}

// maxWorkerSeries caps the per-worker histogram label cardinality;
// workers beyond it share one overflow series.
const maxWorkerSeries = 32

// workerHist returns the remote-cell duration histogram of one fleet
// worker, registering the labeled series on first use (same shape as
// shardHist).
func (s *Server) workerHist(node string) *metrics.Histogram {
	s.workerMu.Lock()
	defer s.workerMu.Unlock()
	h := s.workerDur[node]
	if h == nil && len(s.workerDur) >= maxWorkerSeries {
		if s.workerOverflow == nil {
			s.workerOverflow = s.reg.Histogram("polyserve_worker_cell_seconds",
				`node="overflow"`, "", metrics.LatencyBuckets())
		}
		return s.workerOverflow
	}
	if h == nil {
		help := ""
		if len(s.workerDur) == 0 {
			help = "Remote cell round-trip time by fleet worker (failures included)."
		}
		h = s.reg.Histogram("polyserve_worker_cell_seconds",
			`node="`+strings.ReplaceAll(node, `"`, "'")+`"`, help, metrics.LatencyBuckets())
		s.workerDur[node] = h
	}
	return h
}

// observeWorkerCell records one remote cell round trip (dispatch.go calls
// it for successes and failures alike; a timeout observes the deadline).
func (s *Server) observeWorkerCell(node string, d time.Duration, err error) {
	s.workerHist(node).Observe(d.Seconds())
}

// cellObserver adapts the scheduler's lifecycle callbacks onto the
// server's shard metrics: cells in flight and per-shard durations. It is
// installed as harness Options.Observer for every job.
type cellObserver struct{ s *Server }

func (o cellObserver) TaskStarted(shard int, id string) {
	o.s.cellsInflight.Add(1)
}

func (o cellObserver) TaskDone(shard int, id string, elapsed time.Duration, err error) {
	o.s.cellsInflight.Add(-1)
	o.s.shardHist(shard).Observe(elapsed.Seconds())
}

// observeJobDuration records a finished job's wall time into the
// per-outcome latency histogram.
func (s *Server) observeJobDuration(state JobState, d time.Duration) {
	if h := s.jobDur[state]; h != nil {
		h.Observe(d.Seconds())
	}
}

// MetricsHandler serves the registry in Prometheus text exposition
// format; Handler mounts it at GET /metrics, and cmd/polyserve reuses it
// on the -debug-addr endpoint next to net/http/pprof.
func (s *Server) MetricsHandler() http.Handler { return debughttp.Metrics(s.reg) }
