package pipeline_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestPoisonedEntryPoolBitIdentical checks the one-store entry reset: a
// recycled entry gets only its flags reset at fetch, so every other field
// must be written before anything reads it. Each named model runs one
// Figure 8 cell under the per-cycle audit on an arena whose entry pool
// holds only junk-filled entries (pipeline.PoisonEntryPool). Its
// statistics (IPC included) must equal a fresh machine's, and its
// architectural state the reference's.
func TestPoisonedEntryPoolBitIdentical(t *testing.T) {
	insts := uint64(20_000)
	if testing.Short() {
		insts = 5_000
	}
	suite := workload.Suite(insts)
	for i, name := range core.ModelNames() {
		bm := suite[i%len(suite)]
		t.Run(name+"/"+bm.Spec.Name, func(t *testing.T) {
			prog, err := workload.Generate(bm.Spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := core.ModelConfig(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Audit = pipeline.AuditCycle
			run := func(a *pipeline.Arena) *pipeline.Machine {
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
			fresh := run(nil)
			a := pipeline.NewArena()
			pipeline.PoisonEntryPool(a, 512, pipeline.DefaultConfig().RASDepth)
			poisoned := run(a)
			if !reflect.DeepEqual(fresh.Stats, poisoned.Stats) {
				t.Fatalf("statistics differ on a poisoned pool:\nfresh    %+v\npoisoned %+v", fresh.Stats, poisoned.Stats)
			}
		})
	}
}
