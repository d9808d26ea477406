package harness

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// traceSpec is a stand-in for a polychar-synthesized workload: a
// job-scoped spec that is NOT in any registry.
func traceSpec(insts uint64) workload.Spec {
	return workload.Spec{
		Name: "trace-0123456789ab", Seed: 42, TargetInsts: insts,
		Branches: []workload.BranchSpec{
			{Kind: workload.KindBernoulli, Bias: 0.7},
			{Kind: workload.KindLoop, Trip: 8},
		},
		BlockLen: 4, Chains: 2,
	}
}

// TestOptionsExtraResolvesJobScopedWorkloads: an Extra spec is runnable
// both by explicit name and as part of the default (unrestricted) suite,
// without touching the global registry.
func TestOptionsExtraResolvesJobScopedWorkloads(t *testing.T) {
	opts := Options{
		TargetInsts: 40_000,
		Benchmarks:  []string{"vortex", "trace-0123456789ab"},
		Extra:       []workload.Benchmark{{Spec: traceSpec(0)}},
	}
	mat, err := runMatrix(opts, fig8Configs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %v", mat.Benchmarks)
	}
	cell := mat.Cell("trace-0123456789ab", mat.Configs[0])
	if cell == nil || cell.IPC <= 0 {
		t.Fatal("job-scoped workload did not run")
	}
	// The name must stay job-scoped: invisible without Extra.
	if _, err := runMatrix(Options{Benchmarks: []string{"trace-0123456789ab"}}, fig8Configs()[:1]); err == nil {
		t.Fatal("Extra spec leaked into the global registry")
	}
}

// TestOptionsExtraJoinsDefaultSuite: with no Benchmarks restriction the
// suite is Table 1 plus the Extra specs.
func TestOptionsExtraJoinsDefaultSuite(t *testing.T) {
	opts := Options{
		TargetInsts: 20_000,
		Extra:       []workload.Benchmark{{Spec: traceSpec(0)}},
	}
	benches, err := opts.suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != len(workload.Names())+1 {
		t.Fatalf("suite has %d entries, want %d", len(benches), len(workload.Names())+1)
	}
	last := benches[len(benches)-1]
	if last.Spec.Name != "trace-0123456789ab" {
		t.Fatalf("Extra spec not appended: %s", last.Spec.Name)
	}
	if last.Spec.TargetInsts != 20_000 {
		t.Fatalf("Options.TargetInsts override not applied to Extra: %d", last.Spec.TargetInsts)
	}
}

// TestCharTableDeterministicAcrossParallelism: fig8-char renders
// byte-identically under any shard count, like every other experiment.
func TestCharTableDeterministicAcrossParallelism(t *testing.T) {
	opts := Options{
		TargetInsts: 30_000,
		Benchmarks:  []string{"vortex", "go", "ptrchase"},
	}
	seq := opts
	seq.Parallelism = 1
	par := opts
	par.Parallelism = 8
	a, err := CharTable(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CharTable(par)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("fig8-char differs across parallelism:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	if len(a.Rows) != 3 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	for _, row := range a.Rows {
		if row.Class == "" || row.Digest == "" {
			t.Fatalf("incomplete row %+v", row)
		}
		if row.Placement < 0 || row.Placement > 1 {
			t.Fatalf("placement %v out of [0,1]", row.Placement)
		}
	}
}

// TestCharTableIsRegistered: the experiment registry resolves fig8-char
// and its render carries the placement spectrum legend.
func TestCharTableIsRegistered(t *testing.T) {
	res, err := RunExperiment("fig8-char", Options{
		TargetInsts: 20_000,
		Benchmarks:  []string{"vortex"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 8 placement") || !strings.Contains(out, "vortex") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestCharTableCoversExtendedAndExtra: the default fig8-char table spans
// Table 1, the extended families, and any job-scoped Extra specs.
func TestCharTableCoversExtendedAndExtra(t *testing.T) {
	res, err := CharTable(Options{
		TargetInsts: 15_000,
		Extra:       []workload.Benchmark{{Spec: traceSpec(0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(workload.Names()) + len(workload.Extended(15_000)) + 1
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d (suite + extended + extra)", len(res.Rows), want)
	}
	names := make(map[string]bool, len(res.Rows))
	for _, r := range res.Rows {
		names[r.Name] = true
	}
	for _, n := range []string{"compress", "ptrchase", "interp-dispatch", "branchless", "m88ksim-phased", "trace-0123456789ab"} {
		if !names[n] {
			t.Fatalf("fig8-char table missing %s (have %v)", n, res.Rows)
		}
	}
}
