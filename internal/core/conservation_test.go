package core

import (
	"context"
	"testing"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestConservationLaws runs every named model on every workload family to
// halt and checks the counting identities every stats.Sim must satisfy,
// whatever the machine configuration.
func TestConservationLaws(t *testing.T) {
	for _, name := range workload.AllNames() {
		bm, err := workload.ByName(name, 3_000)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.Generate(bm.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range ModelNames() {
			cfg, err := ModelConfig(model)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunCell(context.Background(), prog, cfg, nil, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, model, err)
			}
			for _, v := range conservationViolations(&res.Stats) {
				t.Errorf("%s/%s: %s", name, model, v)
			}
		}
	}
}

// conservationViolations lists the laws s breaks.
func conservationViolations(s *stats.Sim) []string {
	var bad []string
	check := func(ok bool, law string) {
		if !ok {
			bad = append(bad, law)
		}
	}
	check(s.Fetched == s.Committed+s.Killed, "Fetched != Committed + Killed")
	check(s.Renamed <= s.Fetched, "Renamed > Fetched")
	check(s.Mispredicts == s.LowConfMispred+s.HighConfMispred, "Mispredicts != LowConfMispred + HighConfMispred")
	check(s.Mispredicts <= s.CondBranches, "Mispredicts > CondBranches")
	check(s.LowConfMispred <= s.LowConf, "LowConfMispred > LowConf")
	for c := range isa.NumFUClasses {
		check(s.FUIssued[c] <= s.FUCapacity[c], "FUIssued > FUCapacity for "+isa.FUClass(c).String())
	}
	check(s.StallEmptyWindow+s.StallExecution <= s.Cycles, "StallEmptyWindow + StallExecution > Cycles")
	check(s.PVN() >= 0 && s.PVN() <= 1, "PVN outside [0,1]")
	// The halting cycle skips the per-cycle sample (see stats.Sim).
	for _, h := range []struct {
		name string
		hist *stats.Histogram
	}{{"PathHist", &s.PathHist}, {"WindowHist", &s.WindowHist}, {"CommitHist", &s.CommitHist}} {
		check(h.hist.Samples() == s.Cycles-1, h.name+" samples != Cycles - 1")
	}
	return bad
}
