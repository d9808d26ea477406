package workload

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// generateCalls is how many warm calls TestGenerateAllocationBound takes
// the minimum over. Under -race, sync.Pool drops one Put in four at
// random, so every call misses the recycled pilot image with probability
// 4^-generateCalls; at eight the test flakes on fewer than one run in
// 8000 over the eight stand-ins.
const generateCalls = 8

// TestGenerateAllocationBound bounds the heap a warm Generate call
// allocates for each Table 1 stand-in: the returned data segment and 128
// KiB for everything else (code, labels, the RNG). The pilot run's
// memory image is recycled, so a fresh image, a second build, or streams
// staged outside the segment exceed it. The garbage collector is off so
// that it cannot empty the pool between calls, and one P runs the test
// so that every Get sees the previous Put: a pool keeps the last item
// private to the P that put it. Not parallel: the TotalAlloc delta
// counts every goroutine's allocations.
func TestGenerateAllocationBound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, bm := range Suite(1_000) {
		runtime.GC() // drop the previous stand-in's garbage
		p, err := Generate(bm.Spec)
		if err != nil {
			t.Fatal(err)
		}
		bound := uint64(len(p.DataInit))*8 + 128<<10
		least := ^uint64(0)
		for i := 0; i < generateCalls; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Generate(bm.Spec)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > bound {
			t.Errorf("%s: Generate allocated %d bytes, bound %d", bm.Spec.Name, least, bound)
		}
	}
}
