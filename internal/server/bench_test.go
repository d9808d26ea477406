package server

import (
	"io"
	"log"
	"testing"
)

// hotJob is cells-short's matrix as one polyserve sweep: the eight
// Table 1 stand-ins under four models with six replicates each, 192
// cells of 1000 instructions.
const hotJob = `{"configs":[{"name":"monopath","model":"monopath"},{"name":"see","model":"see"},` +
	`{"name":"tage","model":"tage"},{"name":"adaptive","model":"adaptive"}],"insts":1000,"replicates":6}`

// BenchmarkServeHotJob times a job whose every cell is a memo hit, end
// to end through the HTTP handler: submit, run, and poll until done. A
// warm-up submission fills the memo; the benchmark fails unless the
// last timed job replayed every cell from it.
func BenchmarkServeHotJob(b *testing.B) {
	_, ts := newTestServer(b, Config{CacheCells: 1024, Log: log.New(io.Discard, "", 0)})
	if j := submitAndWait(b, ts, hotJob); j.State != JobDone {
		b.Fatalf("warm-up job %s: %s %s", j.ID, j.State, j.Error)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last Job
	for i := 0; i < b.N; i++ {
		last = submitAndWait(b, ts, hotJob)
		if last.State != JobDone {
			b.Fatalf("job %s: %s %s", last.ID, last.State, last.Error)
		}
	}
	b.StopTimer()
	if res := getResult(b, ts, last.ID); res.Cells != 192 || res.CacheHits != res.Cells {
		b.Fatalf("timed job replayed %d of %d cells from the memo, want all 192", res.CacheHits, res.Cells)
	}
}
