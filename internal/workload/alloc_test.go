package workload

import (
	"runtime"
	"testing"

	"repro/internal/isa"
)

// TestGenerateAllocationBound bounds the heap every warm Generate call
// allocates for each Table 1 stand-in: the returned data segment (the
// packed streams and DataInit), the stream pages the pilot run expands
// (it reads the first page of each stream), and 128 KiB for everything
// else (code, labels, the RNG, and the pilot run's page table and the few
// pages it copies). A flat memory image, a second build, or streams
// staged outside the segment exceed it. Not parallel: the TotalAlloc
// delta counts every goroutine's allocations.
func TestGenerateAllocationBound(t *testing.T) {
	for _, bm := range Suite(1_000) {
		p, err := Generate(bm.Spec)
		if err != nil {
			t.Fatal(err)
		}
		streams, _ := dataWords(bm.Spec)
		pilotPages := streams / streamWords
		bound := uint64(len(p.Packed)+len(p.DataInit)+pilotPages*isa.PageWords)*8 + 128<<10
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
