// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all                 # everything (Table 1, Fig 8-12, ablations)
//	experiments -exp fig8 -insts 800000  # one experiment, longer runs
//	experiments -exp fig10 -bench go,gcc # restrict the benchmark suite
//	experiments -exp fig8 -j 8           # shard cells over 8 workers
//
// Cells are sharded through the deterministic internal/sched engine, so
// the output is byte-identical under any -j value.
//
// Output is plain text: one block per experiment, formatted as the
// rows/series the paper reports. See EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments (table1, fig8, fig8-char, fig9..fig12, paths, abl-*, ext-*, fig-adaptive), ablations (every abl-*) or all; an unknown name lists them all")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	insts := flag.Uint64("insts", 0, "dynamic instructions per benchmark (0 = default 400k)")
	bench := flag.String("bench", "", "comma-separated benchmark subset (default: all eight)")
	jFlag := flag.Int("j", 0, "worker shards for parallel simulation (0 = GOMAXPROCS). Tables are byte-identical under any value")
	reps := flag.Int("reps", 0, "workload-seed replicates averaged per cell (0/1 = single run)")
	audit := flag.String("audit", "off", "invariant-audit level: off, commit, cycle (results are identical at every level)")
	traceFile := flag.String("trace", "", "write a merged cycle-level Chrome/Perfetto trace of every simulated cell to this file (observation-only: tables are unchanged)")
	traceLimit := flag.Int("trace-limit", 65536, "retain at most this many most-recent trace events per cell")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println("experiments", obs.Version())
		return
	}

	auditLevel, err := pipeline.ParseAuditLevel(*audit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	opts := harness.Options{TargetInsts: *insts, Parallelism: *jFlag, Replicates: *reps, Audit: auditLevel}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}

	// -trace: collect each simulated cell's event stream; cells land in
	// harness-worker order, so they are sorted before export to keep the
	// file deterministic.
	var traceMu sync.Mutex
	var traceCells []obs.CellTrace
	if *traceFile != "" {
		opts.TraceLimit = *traceLimit
		opts.OnTrace = func(cell obs.CellTrace) {
			traceMu.Lock()
			traceCells = append(traceCells, cell)
			traceMu.Unlock()
		}
	}

	// The registry in internal/harness is shared with polyserve, so the
	// same experiment name produces byte-identical tables in both.
	selected, err := selectExperiments(*exp, harness.Experiments())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	for _, e := range selected {
		start := time.Now()
		r, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if *jsonOut {
			blob, err := json.MarshalIndent(map[string]any{"experiment": e.Name, "result": r}, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
				os.Exit(1)
			}
			fmt.Println(string(blob))
			continue
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", e.Name, time.Since(start).Seconds(), r.Render())
	}
	if *traceFile != "" {
		sort.Slice(traceCells, func(i, k int) bool { return traceCells[i].Label < traceCells[k].Label })
		f, err := os.Create(*traceFile)
		if err == nil {
			err = obs.WriteChromeTrace(f, traceCells)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote trace of %d cell(s) to %s\n", len(traceCells), *traceFile)
	}
}

// selectExperiments resolves -exp's comma-separated list against the
// registry and returns the named experiments in registry order. "all"
// names every experiment and "ablations" every abl-* one. Any name that
// resolves to nothing is an error, which lists the valid names.
func selectExperiments(list string, exps []harness.Experiment) ([]harness.Experiment, error) {
	want := map[string]bool{}
	var unknown []string
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, e := range exps {
			if name == "all" || name == e.Name || name == "ablations" && strings.HasPrefix(e.Name, "abl-") {
				want[e.Name] = true
				found = true
			}
		}
		if !found {
			unknown = append(unknown, strconv.Quote(name))
		}
	}
	if len(unknown) > 0 {
		names := []string{"all", "ablations"}
		for _, e := range exps {
			names = append(names, e.Name)
		}
		return nil, fmt.Errorf("unknown experiment %s (valid: %s)", strings.Join(unknown, ", "), strings.Join(names, ", "))
	}
	var sel []harness.Experiment
	for _, e := range exps {
		if want[e.Name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}
