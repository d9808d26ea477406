package isa_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// TestRefTraceMatchesTrace holds the packed trace TraceCached returns to
// Trace's records, index by index, on every suite program and one program
// of each extended family, both run to its halt and cut mid-run. The runs
// are long enough that most traces span several chunks. It also bounds
// what the packed trace keeps: 2 bits per record and a 4-byte rank per 64
// records, both rounded up to whole 64-record words, plus 4 bytes per
// indirect jump.
func TestRefTraceMatchesTrace(t *testing.T) {
	const insts = 1 << 20
	indirects, multiChunk := 0, 0
	for _, bm := range append(workload.Suite(insts), workload.Extended(insts)...) {
		p, err := workload.Generate(bm.Spec)
		if err != nil {
			t.Fatal(err)
		}
		_, full, err := isa.Trace(p, 4*insts)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Halted {
			t.Fatalf("%s: no halt within %d instructions", p.Name, 4*insts)
		}
		for _, maxInsts := range []uint64{full.InstCount, full.InstCount / 2} {
			recs, want, err := isa.Trace(p, maxInsts)
			if err != nil {
				t.Fatal(err)
			}
			tr, got, err := isa.TraceCached(p, maxInsts)
			if err != nil {
				t.Fatal(err)
			}
			if got.InstCount != want.InstCount || got.Halted != want.Halted || got.Regs != want.Regs {
				t.Fatalf("%s at %d: final state %d/%v differs from Trace's %d/%v",
					p.Name, maxInsts, got.InstCount, got.Halted, want.InstCount, want.Halted)
			}
			if tr.Len() != len(recs) {
				t.Fatalf("%s at %d: %d records, Trace has %d", p.Name, maxInsts, tr.Len(), len(recs))
			}
			n := 0
			for i, r := range recs {
				if tr.Taken(i) != r.Taken || tr.Indirect(i) != r.Indirect {
					t.Fatalf("%s at %d: record %d reads taken=%v indirect=%v, Trace has %+v",
						p.Name, maxInsts, i, tr.Taken(i), tr.Indirect(i), r)
				}
				if r.Indirect {
					n++
					if tr.Target(i) != int(r.Target) {
						t.Fatalf("%s at %d: record %d targets %d, Trace has %d", p.Name, maxInsts, i, tr.Target(i), r.Target)
					}
				}
			}
			words := (len(recs) + 63) / 64
			if got, limit := isa.RetainedBytes(tr), words*(2*8+4)+4*n; got > limit {
				t.Errorf("%s at %d: trace keeps %d bytes for %d records (%d indirect), limit %d",
					p.Name, maxInsts, got, len(recs), n, limit)
			}
			indirects += n
			if len(recs) > isa.RefChunkRecords {
				multiChunk++
			}
		}
	}
	if indirects == 0 || multiChunk == 0 {
		t.Fatalf("%d indirect records and %d traces past one chunk: Target or the chunking went untested", indirects, multiChunk)
	}
}
