package workload

import (
	"runtime"
	"testing"
)

// TestGenerateAllocationBound bounds the heap Generate allocates for each
// Table 1 stand-in: the returned data segment, the pilot interpreter's
// memory image, and 128 KiB for everything else (code, labels, the RNG).
// A second build, or streams staged outside the segment, exceeds it. Not
// parallel: the TotalAlloc delta counts every goroutine's allocations.
func TestGenerateAllocationBound(t *testing.T) {
	for _, bm := range Suite(1_000) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := Generate(bm.Spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		bound := uint64(len(p.DataInit)+p.MemWords)*8 + 128<<10
		if got > bound {
			t.Errorf("%s: Generate allocated %d bytes, bound %d", bm.Spec.Name, got, bound)
		}
	}
}
