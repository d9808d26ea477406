// Confidence-estimator comparison: run the same benchmarks under SEE with
// different confidence estimators and compare PVN and IPC — the study
// behind the paper's choice of 1-bit JRS resetting counters and behind the
// m88ksim anomaly of Sec. 5.1.
//
//	go run ./examples/confidence
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func main() {
	insts := flag.Uint64("insts", 300_000, "dynamic instructions per benchmark")
	flag.Parse()
	ctx := context.Background()
	estimators := []struct {
		name string
		cfg  func() core.Config
	}{
		{"monopath (no SEE)", core.ConfigMonopath},
		{"JRS 1-bit (paper)", core.ConfigSEE},
		{"JRS 4-bit", func() core.Config {
			c := core.ConfigSEE()
			c.Confidence.CtrBits = 4
			return c
		}},
		{"JRS 1-bit classic index", func() core.Config {
			c := core.ConfigSEE()
			c.Confidence.EnhancedIndex = false
			return c
		}},
		{"adaptive PVN monitor", core.ConfigSEEAdaptive},
		{"oracle CE", core.ConfigSEEOracleCE},
		{"always diverge", func() core.Config {
			c := core.ConfigSEE()
			c.Confidence.Kind = pipeline.ConfAlwaysLow
			return c
		}},
	}

	// go: chaotic branches (clustered misses, high PVN — SEE-friendly).
	// m88ksim: biased branches (isolated misses, low PVN — the anomaly).
	for _, name := range []string{"go", "m88ksim"} {
		bm, err := workload.ByName(name, *insts)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := workload.Generate(bm.Spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (paper Table 1 mispredict %.2f%%):\n", name, 100*bm.PaperMispredict)
		var monoIPC float64
		for _, e := range estimators {
			res, err := core.RunCell(ctx, prog, e.cfg(), nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			if e.name == "monopath (no SEE)" {
				monoIPC = res.IPC
			}
			fmt.Printf("  %-24s IPC %.3f (%+5.1f%%)  lowconf %5.1f%%  PVN %5.1f%%\n",
				e.name, res.IPC, 100*(res.IPC/monoIPC-1),
				100*float64(res.Stats.LowConf)/float64(max(res.Stats.CondBranches, 1)),
				100*res.Stats.PVN())
		}
		fmt.Println()
	}
	fmt.Println("Note how m88ksim's low PVN turns eager execution into a loss —")
	fmt.Println("the anomaly the paper analyzes in Sec. 5.1 — while the adaptive")
	fmt.Println("monitor detects it and falls back toward monopath behaviour.")
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
