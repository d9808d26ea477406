package pipeline_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestPoisonedEntryPoolBitIdentical checks that a machine built on an
// arena resets everything it reuses. A recycled entry gets only its
// flags reset at fetch, so every other field must be written before
// anything reads it, and every reused buffer must read as a fresh one.
// Each named model runs one Figure 8 cell under the per-cycle audit on
// an arena holding the finished machine of the next model on the next
// benchmark, with every slice that machine holds, and its entry pool,
// filled with junk (pipeline.PoisonArena). Its statistics (IPC
// included) must equal a fresh machine's, and its architectural state
// the reference's.
func TestPoisonedEntryPoolBitIdentical(t *testing.T) {
	insts := uint64(20_000)
	if testing.Short() {
		insts = 5_000
	}
	suite := workload.Suite(insts)
	names := core.ModelNames()
	progs := make([]*isa.Program, len(suite))
	for i, bm := range suite {
		progs[i] = workload.MustGenerate(bm.Spec)
	}
	run := func(t *testing.T, name string, prog *isa.Program, a *pipeline.Arena) *pipeline.Machine {
		t.Helper()
		cfg, err := core.ModelConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Audit = pipeline.AuditCycle
		m, err := pipeline.NewWithArena(prog, cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyArchState(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for i, name := range names {
		prog := progs[i%len(progs)]
		t.Run(name+"/"+prog.Name, func(t *testing.T) {
			fresh := run(t, name, prog, nil)
			a := pipeline.NewArena()
			donor := run(t, names[(i+1)%len(names)], progs[(i+1)%len(progs)], nil)
			pipeline.PoisonArena(a, donor, 512, pipeline.DefaultConfig().RASDepth)
			poisoned := run(t, name, prog, a)
			if !reflect.DeepEqual(fresh.Stats, poisoned.Stats) {
				t.Fatalf("statistics differ on a poisoned arena:\nfresh    %+v\npoisoned %+v", fresh.Stats, poisoned.Stats)
			}
		})
	}
}
