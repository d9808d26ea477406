// Command benchab is the performance regression gate. It runs two builds
// of the root package's test binary, the merge base and the head, on the
// same host and fails only when the head is slower with confidence:
//
//	go run ./cmd/benchab BASE.test HEAD.test
//
// make bench-ab BASE=<rev> builds both binaries and runs it. It has no
// flags. Each of 20 pairs runs every gated benchmark for 1 s under both
// binaries, base first in even pairs and head first in odd ones, so drift
// in the host's speed falls on both sides alike. A benchmark fails when
// the one-sided 99% bootstrap lower bound of its median head/base ns/op
// ratio is above 1.0. A gated benchmark missing from the base is reported
// and skipped; one missing from the head fails the gate.
//
// The gate also holds the parallel-scaling floor: over five head runs, the
// median j1/j4 ns/op ratio of BenchmarkHarnessParallel must reach 1.5 on
// a host with at least 4 CPUs. Smaller hosts report the ratio and pass.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
)

const (
	pairs     = 20
	benchtime = "1s"
	// gatedRe selects the gated benchmarks. They run on one CPU, so the
	// gate compares per-core cost. BenchmarkHarnessParallel re-runs a
	// subset of HarnessSweep's cells and feeds only the scaling floor.
	gatedRe   = `^Benchmark(CycleLoop|Renamer|HarnessSweep)$`
	resamples = 10000
	lowerIdx  = resamples / 100 // the 1st percentile: a one-sided 99% bound

	scalingRe   = `^BenchmarkHarnessParallel$/^j[14]$`
	scalingRuns = 5
	minScaling  = 1.5
	scalingCPUs = 4
)

var gated = []string{"BenchmarkCycleLoop", "BenchmarkRenamer", "BenchmarkHarnessSweep"}

// benchLine matches a -test.bench result line, less the name's -<GOMAXPROCS>.
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchab BASE.test HEAD.test")
		os.Exit(2)
	}
	log.SetFlags(0)
	log.SetPrefix("benchab: ")
	var bins [2]string // base, head
	for i, arg := range os.Args[1:] {
		abs, err := filepath.Abs(arg) // exec needs a path, not a bare name
		if err != nil {
			log.Fatal(err)
		}
		bins[i] = abs
	}

	ratios := make(map[string][]float64)
	missing := make(map[string]string) // gated benchmark -> build lacking it
	for i := 0; i < pairs; i++ {
		var ns [2]map[string]float64
		first := i % 2
		for _, side := range []int{first, 1 - first} {
			ns[side] = run(bins[side], gatedRe, "-test.cpu", "1")
		}
		fmt.Printf("pair %2d, %s first:", i+1, [2]string{"base", "head"}[first])
		for _, name := range gated {
			base, okBase := ns[0][name]
			head, okHead := ns[1][name]
			switch {
			case !okBase:
				missing[name] = "base"
			case !okHead:
				missing[name] = "head"
			default:
				ratios[name] = append(ratios[name], head/base)
				fmt.Printf("  %s head/base %s/%s ns", name[len("Benchmark"):],
					strconv.FormatFloat(head, 'f', -1, 64), strconv.FormatFloat(base, 'f', -1, 64))
			}
		}
		fmt.Println()
	}

	failed := false
	for _, name := range gated {
		switch missing[name] {
		case "base":
			fmt.Printf("%-22s not in the base build: skipped\n", name)
		case "head":
			fmt.Printf("%-22s FAIL: missing from the head build\n", name)
			failed = true
		default:
			bad, med, lo := slower(ratios[name])
			verdict := "ok"
			if bad {
				verdict, failed = "FAIL: the head is slower with 99% confidence", true
			}
			fmt.Printf("%-22s median head/base %.3f, 99%% lower bound %.3f  %s\n", name, med, lo, verdict)
		}
	}

	var speedups []float64
	for i := 0; i < scalingRuns; i++ {
		ns := run(bins[1], scalingRe)
		j1, j4 := ns["BenchmarkHarnessParallel/j1"], ns["BenchmarkHarnessParallel/j4"]
		if j1 == 0 || j4 == 0 {
			log.Fatal("BenchmarkHarnessParallel/j1 or /j4 missing from the head build")
		}
		speedups = append(speedups, j1/j4)
	}
	ok, msg := scaling(speedups, runtime.NumCPU())
	fmt.Println("scaling floor:", msg)
	if failed || !ok {
		os.Exit(1)
	}
	fmt.Println("benchab: pass")
}

// run executes the benchmarks of one test binary that match pattern, for
// benchtime each, and returns their ns/op by name.
func run(bin, pattern string, args ...string) map[string]float64 {
	cmd := exec.Command(bin, append([]string{"-test.run", "^$", "-test.bench", pattern,
		"-test.benchtime", benchtime, "-test.timeout", "10m"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		log.Fatalf("%s: %v\n%s", bin, err, out)
	}
	return parse(out)
}

// parse returns the ns/op of every benchmark result line in out by name.
func parse(out []byte) map[string]float64 {
	ns := make(map[string]float64)
	for _, m := range benchLine.FindAllSubmatch(out, -1) {
		if v, err := strconv.ParseFloat(string(m[2]), 64); err == nil {
			ns[string(m[1])] = v
		}
	}
	return ns
}

// slower reports whether the head is slower with confidence: whether the
// one-sided 99% bootstrap lower bound of the median of ratios (head/base
// ns/op, one per pair) is above 1.0, and returns the median and the bound.
// The resampling seed is fixed, so the verdict depends on the ratios alone.
func slower(ratios []float64) (bad bool, med, lo float64) {
	rng := rand.New(rand.NewPCG(1, 2))
	meds := make([]float64, resamples)
	draw := make([]float64, len(ratios))
	for i := range meds {
		for j := range draw {
			draw[j] = ratios[rng.IntN(len(ratios))]
		}
		meds[i] = median(draw)
	}
	slices.Sort(meds)
	lo = meds[lowerIdx]
	return lo > 1, median(slices.Clone(ratios)), lo
}

// scaling applies the parallel-scaling floor to the head's j1/j4 ns/op
// ratios: their median must reach minScaling on a host with at least
// scalingCPUs CPUs. On a smaller host the median is reported and passes.
func scaling(speedups []float64, cpus int) (ok bool, msg string) {
	med := median(slices.Clone(speedups))
	msg = fmt.Sprintf("median j4 speedup over j1 %.2fx in %d runs on %d CPUs (floor %.1fx)",
		med, len(speedups), cpus, minScaling)
	switch {
	case cpus < scalingCPUs:
		return true, msg + fmt.Sprintf(": reported only, below %d CPUs", scalingCPUs)
	case med < minScaling:
		return false, msg + ": FAIL"
	}
	return true, msg + ": ok"
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
