// Command polyload is an open-loop load generator for polyserve: it
// submits single-cell jobs at a fixed target rate regardless of how fast
// the server answers (so queueing delay is measured, not hidden), with a
// configurable mix of hot jobs (a small set of repeated requests that
// exercise the memoization path) and cold jobs (every request a new
// cell that must simulate). At the end it reports client-side completion
// latency percentiles, the achieved throughput, and the server-side p99
// parsed from /metrics.
//
//	polyload -url http://localhost:8080 -rate 1000 -duration 30s -hot 0.8
//
// The exit status is nonzero only when not a single job succeeded —
// partial degradation (backpressure rejections, a flapping worker) is
// reported, not fatal, because surviving overload is the behaviour under
// test.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// hotModels is the repeated-request working set: jobs drawn from it are
// identical, so after each model's first completion every further hot
// job is a pure cache (or result-store) replay.
var hotModels = []string{"see", "monopath", "dualpath", "eager"}

func main() {
	url := flag.String("url", "http://localhost:8080", "polyserve base URL")
	rate := flag.Float64("rate", 200, "target submission rate in jobs/s (open loop)")
	duration := flag.Duration("duration", 30*time.Second, "submission window")
	hotFrac := flag.Float64("hot", 0.8, "fraction of jobs drawn from the repeated hot set [0,1]")
	insts := flag.Uint64("insts", 20000, "instructions per cell")
	bench := flag.String("bench", "compress", "benchmark each job runs")
	poll := flag.Duration("poll", 200*time.Millisecond, "completion poll interval")
	wait := flag.Duration("wait", 2*time.Minute, "per-job completion deadline after the window closes")
	seed := flag.Int64("seed", 1, "hot/cold choice RNG seed")
	flag.Parse()

	if *rate <= 0 || *hotFrac < 0 || *hotFrac > 1 {
		fmt.Fprintln(os.Stderr, "polyload: need -rate > 0 and -hot in [0,1]")
		os.Exit(2)
	}

	// One transport sized for thousands of concurrent pollers; ephemeral
	// port churn, not server capacity, is otherwise the first bottleneck.
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
	}}

	var (
		submitted atomic.Int64
		rejected  atomic.Int64 // submission refused (backpressure etc.)
		failed    atomic.Int64 // terminal failed/cancelled, or wait deadline
		mu        sync.Mutex
		latencies []time.Duration
		wg        sync.WaitGroup
	)

	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()
	deadline := start.Add(*duration)
	// Deficit-based open loop: each wake launches however many jobs the
	// target rate says should exist by now. A one-tick-per-job ticker
	// (1ms at -rate 1000) silently coalesces ticks whenever a launch
	// takes longer than the interval, capping the real rate well below
	// the target; accounting in jobs instead of ticks keeps the
	// generator honest at any rate.
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	target := int(*rate * duration.Seconds())

	fmt.Printf("polyload: %s for %s at %.0f jobs/s (hot %.0f%%, %s/%d insts)\n",
		*url, *duration, *rate, *hotFrac*100, *bench, *insts)

	n := 0
	for now := start; now.Before(deadline) && n < target; now = <-ticker.C {
		expected := int(*rate * now.Sub(start).Seconds())
		if expected > target {
			expected = target
		}
		for launched := n; launched < expected; launched++ {
			n++
			req := server.JobRequest{
				Benchmarks: []string{*bench},
				Insts:      *insts,
			}
			if rng.Float64() < *hotFrac {
				m := hotModels[rng.Intn(len(hotModels))]
				req.Configs = []server.ConfigEntry{{Name: "hot-" + m, Model: m}}
			} else {
				// Cold: a unique instruction count makes a never-before-seen
				// cell without touching the config (and so the config hash).
				req.Insts = *insts + uint64(n)
				req.Configs = []server.ConfigEntry{{Name: "cold", Model: "see"}}
			}
			wg.Add(1)
			go func(req server.JobRequest) {
				defer wg.Done()
				// MaxAttempts 1: open-loop measurement wants to see every
				// rejection, not retry it into the next tick's budget.
				c := &client.Client{BaseURL: *url, HTTP: httpc, MaxAttempts: 1}
				ctx, cancel := context.WithDeadline(context.Background(),
					deadline.Add(*wait))
				defer cancel()
				start := time.Now()
				j, err := c.Submit(ctx, req)
				if err != nil {
					rejected.Add(1)
					return
				}
				submitted.Add(1)
				for {
					cur, err := c.Job(ctx, j.ID)
					if err != nil {
						if ctx.Err() != nil {
							failed.Add(1)
							return
						}
						time.Sleep(*poll)
						continue
					}
					switch cur.State {
					case server.JobDone:
						d := time.Since(start)
						mu.Lock()
						latencies = append(latencies, d)
						mu.Unlock()
						return
					case server.JobFailed, server.JobCancelled:
						failed.Add(1)
						return
					}
					select {
					case <-ctx.Done():
						failed.Add(1)
						return
					case <-time.After(*poll):
					}
				}
			}(req)
		}
	}
	wg.Wait()

	ok := int64(len(latencies))
	total := submitted.Load() + rejected.Load()
	fmt.Printf("polyload: %d launched, %d accepted, %d rejected, %d failed, %d succeeded\n",
		total, submitted.Load(), rejected.Load(), failed.Load(), ok)
	if ok > 0 {
		sort.Slice(latencies, func(i, k int) bool { return latencies[i] < latencies[k] })
		q := func(p float64) time.Duration {
			i := int(p * float64(len(latencies)-1))
			return latencies[i].Round(time.Millisecond)
		}
		fmt.Printf("polyload: completion latency p50=%s p95=%s p99=%s max=%s\n",
			q(0.50), q(0.95), q(0.99), latencies[len(latencies)-1].Round(time.Millisecond))
		fmt.Printf("polyload: achieved %.1f jobs/s over the %s window\n",
			float64(ok)/duration.Seconds(), *duration)
	}
	if p99, err := metricsP99(httpc, *url); err == nil && p99 > 0 {
		fmt.Printf("polyload: server job_duration p99 ≈ %.3fs (from /metrics)\n", p99)
	}
	if ok == 0 {
		fmt.Fprintln(os.Stderr, "polyload: FAIL: zero jobs succeeded")
		os.Exit(1)
	}
}

// labelValue extracts one label's value from a Prometheus series line.
func labelValue(line, label string) (string, bool) {
	i := strings.Index(line, label+`="`)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(label)+2:]
	k := strings.Index(rest, `"`)
	if k < 0 {
		return "", false
	}
	return rest[:k], true
}

// metricsP99 scrapes /metrics and estimates the p99 of the
// polyserve_job_duration_seconds{state="done"} histogram by linear
// interpolation within the first bucket whose cumulative count crosses
// the quantile.
func metricsP99(httpc *http.Client, base string) (float64, error) {
	resp, err := httpc.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	sc := bufio.NewScanner(resp.Body)
	const prefix = `polyserve_job_duration_seconds_bucket{state="done"`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		le, ok := labelValue(line, "le")
		if !ok {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		cum, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		bound := 0.0
		if le == "+Inf" {
			bound = -1 // marker: unbounded
		} else if bound, err = strconv.ParseFloat(le, 64); err != nil {
			continue
		}
		buckets = append(buckets, bucket{le: bound, cum: cum})
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(buckets) == 0 {
		return 0, fmt.Errorf("no job duration buckets")
	}
	sort.Slice(buckets, func(i, k int) bool {
		// +Inf (marked -1) sorts last.
		if buckets[i].le < 0 {
			return false
		}
		if buckets[k].le < 0 {
			return true
		}
		return buckets[i].le < buckets[k].le
	})
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, fmt.Errorf("empty histogram")
	}
	want := 0.99 * total
	prevLE, prevCum := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= want {
			if b.le < 0 { // p99 beyond the last finite bound
				return prevLE, nil
			}
			if b.cum == prevCum {
				return b.le, nil
			}
			return prevLE + (b.le-prevLE)*(want-prevCum)/(b.cum-prevCum), nil
		}
		if b.le >= 0 {
			prevLE, prevCum = b.le, b.cum
		}
	}
	return prevLE, nil
}
