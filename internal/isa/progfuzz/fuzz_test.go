package progfuzz_test

import (
	"testing"

	"repro/internal/isa/progfuzz"
	"repro/internal/pipeline"
)

// commitCollector records the committed-PC stream of a simulation — the
// architectural program order the machine actually retired.
type commitCollector struct{ pcs []int32 }

func (c *commitCollector) Event(ev pipeline.TraceEvent) {
	if ev.Kind == pipeline.TraceCommit {
		c.pcs = append(c.pcs, int32(ev.PC))
	}
}

// fuzzMaxInsts cuts each simulated execution: random control flow loops
// freely (including forever), so every run is bounded.
const fuzzMaxInsts = 3000

// fuzzConfigs are the machine models every fuzz input runs under:
// the monopath baseline, the paper's PolyPath SEE machine, fully eager
// forking, and a deliberately tiny machine where structural pressure
// (window, checkpoints, CTX tags, physical registers) is maximal. The
// tiny machine runs under the per-cycle invariant auditor: its five CTX
// slots are reused constantly, so every input also checks path identity,
// entry recycling and the live-path list against the auditor's sweeps.
func fuzzConfigs() []struct {
	name string
	cfg  pipeline.Config
} {
	mono := pipeline.DefaultConfig()
	mono.Mode = pipeline.Monopath
	mono.Confidence.Kind = pipeline.ConfAlwaysHigh

	see := pipeline.DefaultConfig()

	eager := pipeline.DefaultConfig()
	eager.Confidence.Kind = pipeline.ConfAlwaysLow

	// A TAGE-predicted SEE machine: the tagged-table predictor exercises a
	// different predictor/pipeline interaction (allocation on mispredict,
	// history folding) under the same differential oracle. Tiny tables keep
	// aliasing pressure high at fuzz sizes.
	tage := pipeline.DefaultConfig()
	tage.Predictor = pipeline.PredictorSpec{
		Kind: pipeline.PredTage,
		Params: map[string]int{
			"base_bits": 6, "tables": 4, "idx_bits": 4, "tag_bits": 7,
			"min_hist": 2, "max_hist": 32,
		},
	}

	tiny := pipeline.DefaultConfig()
	tiny.Confidence.Kind = pipeline.ConfAlwaysLow
	tiny.WindowSize = 16
	tiny.PhysRegs = 52
	tiny.Checkpoints = 4
	tiny.CtxHistoryWidth = 2
	tiny.MaxPaths = 5
	tiny.FetchWidth = 4
	tiny.RenameWidth = 4
	tiny.CommitWidth = 4
	tiny.FrontEndStages = 2
	tiny.NumIntType0 = 1
	tiny.NumIntType1 = 1
	tiny.NumFPAdd = 1
	tiny.NumFPMul = 1
	tiny.NumMemPorts = 1
	tiny.Audit = pipeline.AuditCycle

	out := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"monopath", mono},
		{"polypath-jrs", see},
		{"polypath-tage", tage},
		{"polypath-eager", eager},
		{"tiny-machine", tiny},
	}
	for i := range out {
		out[i].cfg.MaxInsts = fuzzMaxInsts
	}
	return out
}

// FuzzPipelineVsInterp is the differential oracle as a Go-native fuzz
// target: for any (seed, size) input, every machine model must commit
// exactly the reference interpreter's instruction stream — same PCs, same
// order, same cut — and retire with identical architectural state. A
// divergence is a simulator bug by construction (the interpreter defines
// the ISA), so any crasher this finds is a real correctness defect.
//
// Run the seed corpus as part of go test, or explore with:
//
//	go test -fuzz FuzzPipelineVsInterp -fuzztime 30s ./internal/isa/progfuzz
func FuzzPipelineVsInterp(f *testing.F) {
	// Seeds span the size range and a few known-interesting shapes (also
	// committed under testdata/fuzz/FuzzPipelineVsInterp).
	f.Add(int64(1), uint64(40))
	f.Add(int64(20260705), uint64(0))
	f.Add(int64(-7777), uint64(160))
	f.Add(int64(424242), uint64(97))
	// Trace-derived seeds: the btrace content digests of the ptrchase and
	// interp-dispatch reference traces (seed = ParseInt(digest[:15], 16),
	// n = the trace's record count), so the fuzzer starts from program
	// shapes the trace-synthesis pipeline actually produces.
	f.Add(int64(896085974340049954), uint64(17820))
	f.Add(int64(404520380316132651), uint64(28280))
	f.Fuzz(func(t *testing.T, seed int64, n uint64) {
		prog := progfuzz.FromSeed(seed, n)
		if err := prog.Validate(); err != nil {
			t.Fatalf("generator emitted an invalid program (seed=%d n=%d): %v", seed, n, err)
		}
		want, err := progfuzz.CommitStream(prog, fuzzMaxInsts)
		if err != nil {
			t.Fatalf("reference interpreter failed (seed=%d n=%d): %v", seed, n, err)
		}
		for _, c := range fuzzConfigs() {
			m, err := pipeline.New(prog, c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			col := &commitCollector{}
			m.SetTracer(col)
			if err := m.Run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if err := m.VerifyArchState(); err != nil {
				t.Fatalf("%s: architectural divergence (seed=%d n=%d): %v", c.name, seed, n, err)
			}
			if len(col.pcs) != len(want) {
				t.Fatalf("%s: committed %d instructions, reference executed %d (seed=%d n=%d)",
					c.name, len(col.pcs), len(want), seed, n)
			}
			for i := range want {
				if col.pcs[i] != want[i] {
					t.Fatalf("%s: commit stream diverges at instruction %d: pipeline committed pc=%d, reference executed pc=%d (seed=%d n=%d)",
						c.name, i, col.pcs[i], want[i], seed, n)
				}
			}
		}
	})
}
