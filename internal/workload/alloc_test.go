package workload

import (
	"runtime"
	"testing"
)

// TestGenerateAllocationBound bounds the heap every warm Generate call
// allocates for each Table 1 stand-in: the returned data segment and 128
// KiB for everything else (code, labels, the RNG, and the pilot run's
// page table and the few pages it copies). A flat memory image, a second
// build, or streams staged outside the segment exceed it. Not parallel:
// the TotalAlloc delta counts every goroutine's allocations.
func TestGenerateAllocationBound(t *testing.T) {
	for _, bm := range Suite(1_000) {
		p, err := Generate(bm.Spec)
		if err != nil {
			t.Fatal(err)
		}
		bound := uint64(len(p.DataInit))*8 + 128<<10
		for range 8 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Generate(bm.Spec)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > bound {
				t.Errorf("%s: Generate allocated %d bytes, bound %d", bm.Spec.Name, got, bound)
			}
		}
	}
}
