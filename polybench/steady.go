package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint identifies the host a result set was measured on. Results
// from different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	Kernel     string `json:"kernel"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		GOMEMLIMIT: os.Getenv("GOMEMLIMIT"),
		CPU:        "unknown",
		Kernel:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	return fp
}

// resultSet is what --steady writes: every run of every workload on one
// host.
type resultSet struct {
	Fingerprint fingerprint         `json:"fingerprint"`
	Seconds     float64             `json:"seconds"`
	Runs        map[string][]result `json:"runs"` // by workload
}

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBounds() (map[string]float64, map[string]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds, better := map[string]float64{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
		better[m.Name] = m.Better
	}
	return bounds, better, nil
}

// runSteady runs each named workload n times, each in a fresh process
// with seeds 1..n, then prints the median, quartiles and relative spread
// of every end-to-end metric and flags any spread above its bound.
func runSteady(names string, n int, seconds float64, out string, stdout, stderr io.Writer) int {
	bounds, _, err := loadBounds()
	if err != nil {
		fmt.Fprintf(stderr, "polybench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "polybench: %v\n", err)
		return 1
	}
	var list []string
	if names == "" || names == "all" {
		for _, w := range workloads {
			list = append(list, w.name)
		}
	} else {
		list = strings.Split(names, ",")
	}
	set := resultSet{Fingerprint: hostFingerprint(), Seconds: seconds, Runs: map[string][]result{}}
	for _, w := range list {
		for seed := 1; seed <= n; seed++ {
			args := []string{"--workload", w, "--seed", strconv.Itoa(seed), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
			var buf bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = &buf
			cmd.Stderr = stderr
			runErr := cmd.Run()
			res, err := lastResult(buf.Bytes())
			if runErr != nil || err != nil {
				fmt.Fprintf(stderr, "polybench: %s seed %d: run %v, result %v\n%s", w, seed, runErr, err, buf.String())
				return 1
			}
			set.Runs[w] = append(set.Runs[w], res)
			fmt.Fprintf(stderr, "%s seed %d done\n", w, seed)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "polybench: writing %s: %v\n", out, err)
			return 1
		}
	}
	if !printSteadiness(stdout, set, bounds) {
		return 1
	}
	return 0
}

// printSteadiness prints per-metric quartiles and reports whether every
// spread stays within its bound.
func printSteadiness(w io.Writer, set resultSet, bounds map[string]float64) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %12s %8s %7s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, wl := range sortedKeys(set.Runs) {
		runs := set.Runs[wl]
		for _, name := range sortedKeys(runs[0].Metrics) {
			var vals []float64
			for _, r := range runs {
				vals = append(vals, r.Metrics[name].Value)
			}
			q1, med, q3 := quartiles(vals)
			sp := spread(vals)
			flag := ""
			if b, has := bounds[name]; has && sp > b {
				flag, ok = " SPREAD ABOVE BOUND", false
			} else if has && sp > b/3 {
				flag = " (above a third of the bound)"
			}
			fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f %12.4f %7.2f%% %6.0f%%%s\n", wl, name, q1, med, q3, 100*sp, 100*bounds[name], flag)
		}
	}
	return ok
}

// lastResult parses the JSON result on the last non-empty line of out.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// runCompare compares two result sets written by --steady: the median of
// every end-to-end metric of every workload, and whether the second is
// worse than the first by more than the metric's bound. Sets measured on
// different host fingerprints are refused.
func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "polybench: --compare takes two result-set files")
		return 2
	}
	var sets [2]resultSet
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "polybench: %s: %v\n", p, err)
			return 1
		}
	}
	if sets[0].Fingerprint != sets[1].Fingerprint {
		fmt.Fprintf(stderr, "polybench: refusing to compare: host fingerprints differ\n  %s: %+v\n  %s: %+v\n",
			paths[0], sets[0].Fingerprint, paths[1], sets[1].Fingerprint)
		return 1
	}
	bounds, better, err := loadBounds()
	if err != nil {
		fmt.Fprintf(stderr, "polybench: %v\n", err)
		return 1
	}
	if !compareSets(stdout, sets, bounds, better) {
		return 1
	}
	return 0
}

// compareSets prints each metric's change between two result sets and
// reports whether none got worse than its bound and ipc_hmean is
// bit-identical at every seed.
func compareSets(stdout io.Writer, sets [2]resultSet, bounds map[string]float64, better map[string]string) bool {
	ok := true
	fmt.Fprintf(stdout, "%-14s %-18s %12s %12s %8s %7s\n", "workload", "metric", "first", "second", "change", "bound")
	for _, wl := range sortedKeys(sets[0].Runs) {
		a, b := sets[0].Runs[wl], sets[1].Runs[wl]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, name := range sortedKeys(a[0].Metrics) {
			var va, vb []float64
			for _, r := range a {
				va = append(va, r.Metrics[name].Value)
			}
			for _, r := range b {
				vb = append(vb, r.Metrics[name].Value)
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			worse := change
			if better[name] == "higher" {
				worse = -change
			}
			flag := ""
			switch {
			case name == "ipc_hmean":
				// Simulated, so exact: both sets ran seeds 1..N, and any
				// difference at one seed means the model changed.
				if s := firstDifference(a, b, name); s > 0 {
					flag, ok = fmt.Sprintf(" CHANGED at seed %d (must be bit-identical)", s), false
				}
			case worse > bounds[name]:
				flag, ok = " WORSE BEYOND BOUND", false
			}
			fmt.Fprintf(stdout, "%-14s %-18s %12.4f %12.4f %+7.2f%% %6.0f%%%s\n", wl, name, ma, mb, 100*change, 100*bounds[name], flag)
		}
	}
	return ok
}

// firstDifference returns the seed at which metric name first differs
// between two run lists made with seeds 1..N, or 0 when none does.
func firstDifference(a, b []result, name string) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i].Metrics[name].Value != b[i].Metrics[name].Value {
			return i + 1
		}
	}
	return 0
}
