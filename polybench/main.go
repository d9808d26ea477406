// Command polybench is the repository's benchmark: it runs one named
// workload against the simulator, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output, one JSON object.
//
//	go run ./polybench --workload fig8-long --seed 1 --seconds 10 --trace 0
//
// METRICS.md in this directory defines every workload and metric.
// polybench/run.sh builds the binary inside the checkout and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// defaultSeed is the seed at which fig8-long reproduces the committed
// Figure 8 table exactly.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload run receives.
type env struct {
	seed    int64
	seconds float64
	setups  int // set-ups per run; setup_s is their median
	rss     *rssSampler
	golden  string // file holding the committed Figure 8 table
}

// report is one workload run's outcome.
type report struct {
	attempted int
	failed    int      // failed, refused or mismatched operations
	failures  []string // what failed
	e2e       map[string]metric
	layer     map[string]metric
	notes     []string // sample counts and bases, printed with the metrics
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail records n failed operations under one message.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloadDef is one named workload. run measures with tracing off when
// rec is nil; with a recorder it also fills report.layer.
type workloadDef struct {
	name string
	run  func(e *env, rec *recorder) (*report, error)
}

var workloads = []workloadDef{
	{"fig8-long", runFig8Long},
	{"cells-short", runCellsShort},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// e2eUnits names the end-to-end metrics of the result line, with their
// units: the end_to_end list of BENCHMARK.json. Every run also prints
// peak_rss_mb and failed_frac; they stay out of the result line because
// peak RSS spreads too widely across runs to gate on, and failures are
// the line's own failed and attempted counts.
var e2eUnits = map[string]string{
	"sim_minsts_per_s": "Minst/s",
	"cells_per_s":      "cells/s",
	"job_p50_ms":       "ms",
	"job_p99_ms":       "ms",
	"ipc_hmean":        "IPC",
	"setup_s":          "s",
	"heap_alloc_mb":    "MB",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig8-long, cells-short")
	seed := fs.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	golden := fs.String("golden", "experiments_output.txt", "committed experiment output holding the Figure 8 table")
	steady := fs.Int("steady", 0, "steadiness report: run each --workload (comma list, or all) this many times with seeds 1..N")
	out := fs.String("out", "", "with --steady: write the result set (fingerprint plus every run) to this file")
	compare := fs.Bool("compare", false, "compare two result sets given as arguments; refuses differing host fingerprints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return runCompare(fs.Args(), stdout, stderr)
	case *steady > 0:
		return runSteady(*name, *steady, *seconds, *out, stdout, stderr)
	}
	e := &env{seed: *seed, seconds: *seconds, setups: 9, golden: *golden, rss: startRSS()}
	defer e.rss.close()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "polybench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "polybench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	fp := hostFingerprint()
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *trace)

	rep, err := w.run(e, nil)
	if err != nil {
		fmt.Fprintf(stderr, "polybench: %s: %v\n", w.name, err)
		return 1
	}
	printE2E(stdout, w.name, rep)
	final := rep
	metrics := pick(rep.e2e, e2eUnits)
	if *trace == 1 {
		rec := newRecorder()
		traced, err := w.run(e, rec)
		if err != nil {
			fmt.Fprintf(stderr, "polybench: %s traced: %v\n", w.name, err)
			return 1
		}
		spans := rec.snapshot()
		printOverhead(stdout, rep, traced)
		if u := rep.e2e["job_p50_ms"].Value; u > 0 {
			traced.layer["trace.overhead_pct"] = metric{100 * (traced.e2e["job_p50_ms"].Value - u) / u, "%"}
		}
		printSelfTimes(stdout, spans)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(stderr, "polybench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), path)
		printLayer(stdout, w.name, traced)
		traced.failures = append(rep.failures, traced.failures...)
		traced.failed += rep.failed
		traced.attempted += rep.attempted
		final = traced
		metrics = pick(traced.layer, layerUnits)
	}
	res := result{
		Correct:   final.failed == 0,
		Attempted: final.attempted,
		Failed:    final.failed,
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, f := range final.failures {
		fmt.Fprintf(stdout, "FAILED: %s\n", f)
	}
	fmt.Fprintf(stdout, "failed_frac %.6f ratio (%d failed of %d attempted) [%s]\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, w.name)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "polybench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printE2E prints every end-to-end metric by name, unit and workload.
func printE2E(w io.Writer, workload string, rep *report) {
	for _, name := range sortedKeys(rep.e2e) {
		m := rep.e2e[name]
		fmt.Fprintf(w, "%-18s %14.4f %-8s [%s]\n", name, m.Value, m.Unit, workload)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// printLayer prints every per-layer metric of a traced run.
func printLayer(w io.Writer, workload string, rep *report) {
	fmt.Fprintf(w, "per-layer metrics [%s] (0 = layer not exercised by this workload)\n", workload)
	for _, name := range sortedKeys(rep.layer) {
		m := rep.layer[name]
		fmt.Fprintf(w, "%-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// printOverhead compares the traced run's end-to-end metrics with the
// untraced run's.
func printOverhead(w io.Writer, untraced, traced *report) {
	fmt.Fprintln(w, "tracing overhead (traced vs untraced end-to-end):")
	for _, name := range sortedKeys(untraced.e2e) {
		u, t := untraced.e2e[name].Value, traced.e2e[name].Value
		rel := 0.0
		if u != 0 {
			rel = 100 * (t - u) / u
		}
		fmt.Fprintf(w, "  %-18s untraced %12.4f traced %12.4f (%+.1f%%)\n", name, u, t, rel)
	}
}

// pick returns the metrics named in units; a name the run did not measure
// reads 0 (a layer the workload does not exercise).
func pick(measured map[string]metric, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		m, ok := measured[name]
		if !ok {
			m = metric{0, unit}
		}
		out[name] = m
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// rssSampler samples the resident set every rssEvery, so a run can report
// the peak of each unit of work (a pass, a second of traffic) and take the
// median over units instead of one process-wide high-water mark.
type rssSampler struct {
	mu   sync.Mutex
	at   []time.Time
	mb   []float64
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return // no sample this tick; peak() reports 0 for a unit with none
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.at = append(s.at, time.Now())
	s.mb = append(s.mb, pages*float64(os.Getpagesize())/1e6)
	s.mu.Unlock()
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// peak returns the largest sample taken in [from, to].
func (s *rssSampler) peak(from, to time.Time) float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := 0.0
	for i, t := range s.at {
		if !t.Before(from) && !t.After(to) {
			p = max(p, s.mb[i])
		}
	}
	return p
}

// finishE2E fills the metrics every workload shares and checks that all
// are present. rssPeaks holds the peak resident set of each unit of work.
func finishE2E(rep *report, setups []time.Duration, rssPeaks []float64) error {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	rep.e2e["setup_s"] = metric{median(secs), "s"}
	rep.e2e["peak_rss_mb"] = metric{median(rssPeaks), "MB"}
	if hwm, err := peakRSSMB(); err == nil {
		rep.note("peak_rss_mb is the median over %d units of work of each unit's sampled peak; process VmHWM %.1f MB; setup_s is the median of %d set-ups %.3v s",
			len(rssPeaks), hwm, len(setups), secs)
	}
	for name, unit := range e2eUnits {
		if _, ok := rep.e2e[name]; !ok && rep.failed == 0 {
			return fmt.Errorf("metric %s (%s) not measured", name, unit)
		}
	}
	return nil
}

// latencyMetrics sets job_p50_ms and job_p99_ms from latency samples in ms.
func latencyMetrics(rep *report, what string, ms []float64) {
	t := tailPercentile(ms)
	rep.e2e["job_p50_ms"] = metric{median(ms), "ms"}
	rep.e2e["job_p99_ms"] = metric{t.Value, "ms"}
	rep.note("job latency = %s: p50 over %d samples; tail p%g %.3f ms with %d samples beyond it", what, t.N, 100*t.Q, t.Value, t.Beyond)
}
