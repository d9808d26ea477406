// Memory-latency extension: replace the paper's always-hit cache
// assumption with a small set-associative cache hierarchy and sweep the
// miss penalty, showing how SEE's advantage responds to a real memory
// system (it grows: misses lengthen branch resolution, so the avoided
// misprediction penalties are worth more).
//
//	go run ./examples/memlat
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	insts := flag.Uint64("insts", 300_000, "dynamic instructions to simulate")
	flag.Parse()
	ctx := context.Background()
	bm, err := workload.ByName("gcc", *insts)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := workload.Generate(bm.Spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("gcc stand-in, 8-way machine, 1k-word 2-way D-cache")
	fmt.Printf("%-18s %10s %10s %10s %10s\n", "miss penalty", "monopath", "SEE", "SEE gain", "d$ miss")
	for _, lat := range []int{0, 4, 10, 20, 40} {
		withCache := func(c core.Config) core.Config {
			if lat == 0 {
				return c // the paper's always-hit assumption
			}
			c.EnableDCache = true
			c.DCache = cache.Config{Sets: 64, Ways: 2, LineWords: 8}
			c.DCacheMissLatency = lat
			return c
		}
		mono, err := core.RunCell(ctx, prog, withCache(core.ConfigMonopath()), nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		see, err := core.RunCell(ctx, prog, withCache(core.ConfigSEE()), nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%d cycles", lat)
		if lat == 0 {
			label = "always hit"
		}
		fmt.Printf("%-18s %10.3f %10.3f %+9.1f%% %9.1f%%\n",
			label, mono.IPC, see.IPC, 100*(see.IPC/mono.IPC-1), 100*mono.Stats.DCacheMissRate())
	}
}
