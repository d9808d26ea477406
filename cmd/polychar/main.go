// Command polychar characterizes branch-predictability: it profiles a
// PBT1 branch trace or any registered workload (per-PC bias histogram,
// history-depth response, misprediction clustering) and places it on the
// paper's Figure 8 clustered-vs-isolated spectrum.
//
// Usage:
//
//	polychar -trace app.pbt.gz              # profile a captured trace
//	polychar -workload go                   # profile a registered workload
//	polychar -trace app.pbt.gz -synth       # + synthesize a calibrated stand-in
//	polychar -workload gcc -sites 10        # + hottest conditional sites
//	polychar -all -j 8                      # Figure 8 placement table, all families
//	polychar -all -json                     # machine-readable placement table
//
// polysim closes the loop: `polysim -bench X -emit-trace f.pbt.gz`
// exports a trace that polychar can profile, and `polysim -import-trace`
// simulates the synthesized stand-in.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/btrace"
	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	tracePath := flag.String("trace", "", "characterize a PBT1 branch-trace file (gzip detected transparently)")
	workloadName := flag.String("workload", "", "characterize a registered workload by name (unknown names list what is registered)")
	all := flag.Bool("all", false, "characterize every workload family and print the Figure 8 placement table")
	insts := flag.Uint64("insts", 0, "dynamic instructions for workload characterization and synthesis targets (0 = default 400k)")
	sites := flag.Int("sites", 0, "also print the N most-executed conditional sites with their bias")
	synth := flag.Bool("synth", false, "synthesize a calibrated stand-in workload from the profile and report the achieved misprediction rate")
	jobs := flag.Int("j", 0, "worker shards for -all (0 = GOMAXPROCS); the table is byte-identical under any value")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of the text report")
	flag.Parse()

	switch {
	case *all:
		if *tracePath != "" || *workloadName != "" {
			fail(fmt.Errorf("-all is incompatible with -trace and -workload"))
		}
		res, err := harness.CharTable(harness.Options{TargetInsts: *insts, Parallelism: *jobs})
		fail(err)
		if *asJSON {
			emitJSON(res)
			return
		}
		fmt.Print(res.Render())
	case *tracePath != "" && *workloadName != "":
		fail(fmt.Errorf("-trace and -workload are mutually exclusive"))
	case *tracePath != "":
		f, err := os.Open(*tracePath)
		fail(err)
		defer f.Close()
		r, err := btrace.NewReader(f)
		fail(err)
		ch, err := btrace.Characterize(r)
		fail(err)
		report(ch, *insts, *sites, *synth, *asJSON)
	case *workloadName != "":
		bm, err := workload.ByName(*workloadName, *insts)
		fail(err)
		p, err := workload.Generate(bm.Spec)
		fail(err)
		n := bm.Spec.TargetInsts
		ch, err := btrace.CharacterizeProgram(p, n, bm.Spec.Name)
		fail(err)
		report(ch, *insts, *sites, *synth, *asJSON)
	default:
		fail(fmt.Errorf("nothing to characterize: pass -trace <file>, -workload <name>, or -all"))
	}
}

// synthReport is the -synth section of the report.
type synthReport struct {
	Name     string  `json:"name"`
	Target   float64 `json:"target_rate"`
	Achieved float64 `json:"achieved_rate"`
	RelErr   float64 `json:"rel_err"`
	Branches int     `json:"branch_sites"`
	Seed     int64   `json:"seed"`
	// Error carries the calibration near-miss, when the target rate was
	// unreachable within tolerance.
	Error string `json:"error,omitempty"`
}

func report(ch *btrace.Characterization, insts uint64, sites int, synth, asJSON bool) {
	var top []btrace.SiteBias
	if sites > 0 {
		top = ch.TopSites(sites)
	}
	var sr *synthReport
	if synth {
		sr = synthesize(ch, insts)
	}
	if asJSON {
		emitJSON(struct {
			*btrace.Characterization
			TopSites []btrace.SiteBias `json:"top_sites,omitempty"`
			Synth    *synthReport      `json:"synth,omitempty"`
		}{ch, top, sr})
		return
	}
	fmt.Print(ch.Render())
	if sites > 0 {
		fmt.Printf("top %d sites by dynamic count:\n", len(top))
		for _, s := range top {
			fmt.Printf("  pc %-6d %10d  taken %6.2f%%\n", s.PC, s.Count, 100*s.TakenRate)
		}
	}
	if sr != nil {
		fmt.Printf("synthesized %s: gshare(%d) mispredict %.2f%% (target %.2f%%, %+.1f%% relative, %d branch sites, seed %d)\n",
			sr.Name, btrace.RefHistBits, 100*sr.Achieved, 100*sr.Target, 100*sr.RelErr, sr.Branches, sr.Seed)
		if sr.Error != "" {
			fmt.Fprintln(os.Stderr, "polychar: warning:", sr.Error)
		}
	}
}

// synthesize runs the closed-loop calibration. A *workload.CalibrationError
// near-miss is reported but the best candidate is still described; any
// other failure is fatal.
func synthesize(ch *btrace.Characterization, insts uint64) *synthReport {
	bm, err := btrace.Synthesize(ch, insts)
	sr := &synthReport{
		Name:     bm.Spec.Name,
		Target:   ch.Rate,
		Achieved: bm.PaperMispredict,
		Branches: len(bm.Spec.Branches),
		Seed:     bm.Spec.Seed,
	}
	if t := ch.Rate; t > 0 {
		sr.RelErr = (bm.PaperMispredict - t) / t
	}
	if err != nil {
		var ce *workload.CalibrationError
		if !errors.As(err, &ce) {
			fail(err)
		}
		sr.Error = err.Error()
	}
	return sr
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	fail(enc.Encode(v))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "polychar:", err)
		os.Exit(1)
	}
}
