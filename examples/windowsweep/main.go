// Window sweep: a miniature Figure 10 — IPC as a function of the
// instruction window size for one benchmark under four machine models.
//
//	go run ./examples/windowsweep
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
	insts := flag.Uint64("insts", 200_000, "dynamic instructions to simulate")
	flag.Parse()
	ctx := context.Background()
	bm, err := workload.ByName("compress", *insts)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		log.Fatal(err)
	}

	models := []struct {
		name string
		cfg  func() core.Config
	}{
		{"oracle", core.ConfigOracleBP},
		{"monopath", core.ConfigMonopath},
		{"SEE/oracleCE", core.ConfigSEEOracleCE},
		{"SEE/JRS", core.ConfigSEE},
	}
	fmt.Printf("%-8s", "window")
	for _, m := range models {
		fmt.Printf(" %12s", m.name)
	}
	fmt.Println()
	for _, w := range []int{32, 64, 128, 256, 512} {
		fmt.Printf("%-8d", w)
		for _, m := range models {
			cfg, err := pipeline.NewConfigFrom(m.cfg(), pipeline.WithWindowSize(w))
			if err != nil {
				log.Fatal(err)
			}
			res, err := core.RunCell(ctx, prog, cfg, nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %12.3f", res.IPC)
		}
		fmt.Println()
	}
	fmt.Println("\nAs in the paper's Fig. 10, most of the performance is reached by")
	fmt.Println("a moderate window, and SEE keeps a margin over monopath even for")
	fmt.Println("small windows.")
}
