package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/confidence"
	"repro/internal/isa"
	"repro/internal/workload"
)

// TestArenaReuseMatchesFreshArena covers the arena's predictor and
// estimator reuse over every registered kind: for each bpred kind under
// the default estimator, and each confidence kind under the default
// predictor, one arena runs the config on gcc, then on gcc of another
// seed (the same code layout, so stale table entries meet the same
// branch addresses), then on go (another layout, so a predictor that
// kept gcc's program answers for the wrong code). Each reused run's
// statistics must equal a run of the same program on a fresh arena.
func TestArenaReuseMatchesFreshArena(t *testing.T) {
	var progs []*isa.Program
	for _, c := range []struct {
		name string
		seed int64
	}{{"gcc", 0}, {"gcc", 1000}, {"go", 0}} {
		bm, err := workload.ByName(c.name, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		bm.Spec.Seed += c.seed
		progs = append(progs, workload.MustGenerate(bm.Spec))
	}
	var cfgs []Config
	var names []string
	for _, kind := range bpred.Kinds() {
		cfg := DefaultConfig()
		cfg.Predictor = PredictorSpec{Kind: PredictorKind(kind), Params: requiredParams(kind)}
		cfgs, names = append(cfgs, cfg), append(names, "predictor "+kind)
	}
	for _, kind := range confidence.Kinds() {
		cfg := DefaultConfig()
		cfg.Confidence.Kind = confidence.Kind(kind)
		cfgs, names = append(cfgs, cfg), append(names, "confidence "+kind)
	}
	run := func(prog *isa.Program, cfg Config, a *Arena) *Machine {
		t.Helper()
		m, err := NewWithArena(prog, cfg, a)
		if err == nil {
			err = m.Run()
		}
		if err == nil {
			err = m.VerifyArchState()
		}
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		return m
	}
	for i, cfg := range cfgs {
		a := NewArena()
		run(progs[0], cfg, a).Recycle(a)
		for _, prog := range progs[1:] {
			want := run(prog, cfg, nil).Stats
			m := run(prog, cfg, a)
			if !reflect.DeepEqual(m.Stats, want) {
				t.Errorf("%s on %s: a reused arena's run differs from a fresh one:\nreused %+v\nfresh  %+v", names[i], prog.Name, m.Stats, want)
			}
			m.Recycle(a)
		}
	}
}

// requiredParams returns a value for each parameter kind's schema
// requires: 10, or the nearest value the schema allows.
func requiredParams(kind string) map[string]int {
	e, _ := bpred.Lookup(kind)
	var p map[string]int
	for _, sp := range e.Params {
		if sp.Required {
			if p == nil {
				p = make(map[string]int)
			}
			p[sp.Name] = min(max(10, sp.Min), sp.Max)
		}
	}
	return p
}
