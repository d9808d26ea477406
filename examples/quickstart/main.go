// Quickstart: build a small synthetic workload, run it on the monopath
// baseline and on the PolyPath SEE machine, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func main() {
	insts := flag.Uint64("insts", 200_000, "dynamic instructions to simulate")
	flag.Parse()
	ctx := context.Background()

	// A custom workload: a loop body with two hard-to-predict branches
	// (70% and 50% taken), one periodic branch, and one inner loop —
	// roughly "compress"-shaped control flow.
	spec := workload.Spec{
		Name:        "quickstart",
		Seed:        42,
		TargetInsts: *insts,
		Branches: []workload.BranchSpec{
			{Kind: workload.KindBernoulli, Bias: 0.7},
			{Kind: workload.KindBernoulli, Bias: 0.5},
			{Kind: workload.KindPattern, Period: 4},
			{Kind: workload.KindLoop, Trip: 5},
		},
		BlockLen:  8,
		Chains:    6,
		LoadFrac:  0.2,
		StoreFrac: 0.1,
		PredDepth: 6,
	}
	prog, err := workload.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %q: %d static instructions, %d memory words\n\n",
		prog.Name, len(prog.Code), prog.MemWords)

	mono, err := core.RunCell(ctx, prog, core.ConfigMonopath(), nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	see, err := core.RunCell(ctx, prog, core.ConfigSEE(), nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Swapping the direction predictor is a config-spec change: any kind
	// registered in internal/bpred works here, with its parameters carried
	// as an opaque schema-checked map. This TAGE predictor occupies exactly
	// the same storage as the baseline gshare (see the Figure 9-TAGE
	// equal-area sweep).
	tcfg := core.ConfigSEE()
	tcfg.Predictor = pipeline.PredictorSpec{
		Kind:   pipeline.PredTage,
		Params: map[string]int(bpred.TageIsoParams(11)),
	}
	tage, err := core.RunCell(ctx, prog, tcfg, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("monopath:  IPC %.3f over %d cycles (mispredict %.1f%%)\n",
		mono.IPC, mono.Stats.Cycles, 100*mono.Stats.MispredictRate())
	fmt.Printf("SEE:       IPC %.3f over %d cycles (divergences %d, PVN %.0f%%, avg paths %.1f)\n",
		see.IPC, see.Stats.Cycles, see.Stats.Divergences, 100*see.Stats.PVN(), see.Stats.AvgPaths())
	fmt.Printf("SEE/TAGE:  IPC %.3f over %d cycles (mispredict %.1f%%, iso-storage with gshare)\n",
		tage.IPC, tage.Stats.Cycles, 100*tage.Stats.MispredictRate())
	fmt.Printf("\nselective eager execution speedup: %+.1f%%\n", 100*(see.IPC/mono.IPC-1))
	fmt.Println("(all runs' committed architectural state was verified against the functional interpreter)")
}
